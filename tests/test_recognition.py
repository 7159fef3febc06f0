import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicycle import (
    Acyclic,
    AllCyclesEqual,
    BookShape,
    CycleShape,
    DistinctLengths,
    NotRejectedError,
    OtherShape,
    OverBudgetError,
    SearchBudget,
    book,
    build,
    complete,
    complete_bipartite,
    cycle,
    cycle_spectrum,
    decide,
    decompose,
    extract_witnesses,
    path,
    wedge,
)
from equicycle import recognition
from equicycle.decomposition import Block, chain_decomposition

from brute import (
    based_at,
    ear_decomposition_edges,
    graph_cycle_lengths,
    is_connected,
    is_simple_cycle,
    reference_classify,
    subdivide,
)
from structured import structured_graphs


def assert_exact_pair(g, pair, status):
    """An exact pair: two simple cycles of g, shorter first, and the same
    pair that decide(g, witnesses=True) and extract_witnesses(g) find."""
    assert status == "exact"
    a, b = pair
    assert len(a) < len(b)
    assert is_simple_cycle(g, a) and is_simple_cycle(g, b)
    res = decide(g, witnesses=True)
    assert (res.witness_a, res.witness_b, res.witness_status) == (a, b, status)
    assert extract_witnesses(g) == (pair, status)


THETA = build(6, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 1)])


@pytest.mark.parametrize("g, shape, r", [
    (cycle(6), CycleShape(6), 6),
    (book(2, 4, 4), BookShape(k=2, p=4), 4),
    (complete(4), OtherShape("degree-profile"), None),
    # two triangles sharing an edge: hub paths of lengths 1, 2, 2
    (book(1, 3, 2), OtherShape("endpoints-adjacent-structure"), None),
    # theta graph with path lengths 2, 2, 3
    (THETA, OtherShape("unequal-path-lengths"), None),
], ids=["cycle", "book", "k4-other", "adjacent-hubs-other", "unequal-paths-other"])
def test_classify(g, shape, r):
    shapes = decide(g).shapes
    assert shapes == (shape,) and shapes[0].r == r


@settings(max_examples=400, deadline=None)
@given(structured_graphs())
def test_classify_matches_reference(g):
    # the classifier on the chain decomposition's blocks of g
    d = decompose(g)
    _, rows, _ = recognition._cycle_blocks(g)
    assert len(rows) == len(d.cycle_blocks)
    for block, (_, shape) in zip(d.cycle_blocks, rows):
        expected = reference_classify(block)
        assert shape == expected and repr(shape) == repr(expected)


@pytest.mark.parametrize("g", [
    # one vertex on blocks of every shape: a hub of one book, an inner
    # page vertex of another, on a K4, a theta and cycles, and a bridge
    wedge(cycle(3), book(2, 4, 2), cycle(3), complete(4),
          based_at(book(2, 4, 3), 1), THETA, cycle(4), path(3)),
    # a page's inner vertex that is a cut vertex, with pendant blocks and
    # trees: the blocks are all well-shaped, so witnesses come from two
    # blocks whose walks pass that vertex
    wedge(based_at(book(2, 4, 2), 1), cycle(3), cycle(5),
          book(3, 6, 2), path(4), based_at(path(3), 1)),
    # the same with a misshapen pendant block
    wedge(based_at(book(2, 4, 2), 1), complete(4), cycle(3), path(2)),
], ids=["hub-of-mixed-blocks", "page-vertex-cut", "page-vertex-cut-k4"])
def test_block_degrees_where_blocks_share_vertices(g):
    # every vertex in turn is the DFS root, so that a shared vertex tops
    # all of its blocks, or lies below the top of one of them
    for root in range(g.vertex_count):
        h = based_at(g, root)
        d = decompose(h)
        for block in d.cycle_blocks:
            inside = set(block.vertices)
            assert block.edges == tuple(e for e in h.edges if inside.issuperset(e))
        assert sum(len(b.edges) for b in d.cycle_blocks) + len(d.bridges) == h.edge_count
        expected = [reference_classify(b) for b in d.cycle_blocks]
        res = decide(h, witnesses=True)
        assert repr(res.shapes) == repr(tuple(expected))
        _, rows, parent = recognition._cycle_blocks(h)
        assert len(rows) == len(d.cycle_blocks)
        leasts = [least for least, *_ in chain_decomposition(h)[4]]
        for block, least, (chains, _) in zip(d.cycle_blocks, leasts, rows):
            assert least == block.vertices[0]
            # an ear decomposition of exactly its edges: the block is 2-connected
            assert ear_decomposition_edges(parent, chains) == block.edges
        assert_exact_pair(h, (res.witness_a, res.witness_b), res.witness_status)


@pytest.mark.parametrize("case", ["triangles-rooted-at-hub", "triangles-rooted-at-book",
                                  "books-at-hub", "books-at-page"])
def test_windmill(case):
    # 2 * 10**4 blocks share one vertex; a step that read that vertex's
    # whole neighbour list once per block would take minutes here.
    # triangles: 2 * 10**4 triangles and a book B(2, 4, 2) share vertex
    # h.  With the DFS rooted at h, h tops every block; rooted at the
    # book's other hub, the book holds h's tree edge and closes last,
    # after every triangle.  books: a triangle and 2 * 10**4 books
    # B(2, 4, 2) share vertex 0, a hub of every book or an inner vertex
    # of one of its pages, so the hub-to-hub paths of every book pass it.
    t = 2 * 10**4
    if case.startswith("triangles"):
        h, b = (0, 1) if case.endswith("hub") else (1, 0)
        edges = [e for x in (2, 3, 4) for e in ((h, x), (x, b))]
        edges += [e for a in range(5, 5 + 2 * t, 2) for e in ((h, a), (h, a + 1), (a, a + 1))]
        g = build(5 + 2 * t, edges)
        shapes = {CycleShape(3): t, BookShape(2, 2): 1}
    else:
        h, bk = 0, book(2, 4, 2)
        g = wedge(cycle(3), *[bk if case == "books-at-hub" else based_at(bk, 1)] * t)
        shapes = {CycleShape(3): 1, BookShape(2, 2): t}
    d = decompose(g)
    assert len(d.cycle_blocks) == t + 1 and d.bridges == () and d.cut_vertices == (h,)
    res = decide(g, witnesses=True)
    assert Counter(res.shapes) == shapes
    assert [len(res.witness_a), len(res.witness_b)] == [3, 4]
    assert_exact_pair(g, (res.witness_a, res.witness_b), res.witness_status)


@settings(max_examples=200, deadline=None)
@given(structured_graphs())
def test_decide_witnesses_match_extract_witnesses(g):
    # every rejection is exact, degree-profile blocks included
    d = decide(g, witnesses=True)
    if not isinstance(d, DistinctLengths):
        return
    pair, status = extract_witnesses(g)
    assert (d.witness_a, d.witness_b, d.witness_status) == (*pair, status)
    assert_exact_pair(g, pair, status)
    # the benchmark's call form: the shapes and decomposition it passes
    # are ignored
    dec = decompose(g)
    assert extract_witnesses(g, decide(g, decomposition=dec).shapes, decomposition=dec) == (pair, status)


@settings(max_examples=300, deadline=None)
@given(structured_graphs().filter(lambda g: g.vertex_count <= 16))
def test_decide_matches_brute_force_on_structured_graphs(g):
    d = decide(g)
    lengths = graph_cycle_lengths(g)
    if not lengths:
        assert isinstance(d, Acyclic)
    elif len(lengths) == 1:
        assert isinstance(d, AllCyclesEqual) and d.r == lengths.pop()
    else:
        assert isinstance(d, DistinctLengths)
    # the shapes are reference_classify's on decompose's blocks, and a
    # note marks exactly the disconnected inputs
    expected = tuple(reference_classify(b) for b in decompose(g).cycle_blocks)
    shapes = getattr(d, "shapes", ())
    assert repr(shapes) == repr(expected)
    assert bool(d.notes) == (not is_connected(g))


def test_decide_odd_wedge():
    d = decide(wedge(cycle(5), cycle(5), path(3)))
    assert isinstance(d, AllCyclesEqual) and d.r == 5
    assert all(isinstance(s, CycleShape) for s in d.shapes)


def test_decide_even_mixed_shapes():
    d = decide(wedge(book(3, 6, 4), cycle(6)))
    assert isinstance(d, AllCyclesEqual) and d.r == 6
    assert {type(s) for s in d.shapes} == {BookShape, CycleShape}


def test_decide_distinct_cycles():
    d = decide(wedge(cycle(3), cycle(4)), witnesses=True)
    assert isinstance(d, DistinctLengths)
    assert len(d.witness_a) == 3 and len(d.witness_b) == 4


def test_decide_acyclic():
    assert isinstance(decide(path(5)), Acyclic)
    assert isinstance(decide(build(1, [])), Acyclic)


def test_decide_rejects_subdivided_kuratowski():
    for base in (complete(5), complete_bipartite(3, 3)):
        g = base
        for e in list(base.edges):
            g = subdivide(g, e, 1)
        assert isinstance(decide(g), DistinctLengths)


def test_decide_book_r_must_match_cycles():
    # Book forces even r; a C_5 alongside B(2,4,p) blocks is rejected
    g = wedge(book(2, 4, 2), cycle(5))
    assert isinstance(decide(g), DistinctLengths)


def test_odd_acceptance_has_only_cycle_blocks():
    rng = random.Random(41)
    for _ in range(30):
        s = rng.randint(1, 4)
        r = rng.choice([3, 5, 7])
        g = wedge(*[cycle(r)] * s, path(rng.randint(0, 3)))
        d = decide(g)
        assert isinstance(d, AllCyclesEqual) and d.r % 2 == 1
        assert all(isinstance(sh, CycleShape) for sh in d.shapes)


def test_decide_notes_an_isolated_vertex():
    g = build(4, [(0, 1), (1, 2), (2, 0)])  # vertex 3 is isolated
    d = decide(g)
    assert isinstance(d, AllCyclesEqual) and d.r == 3
    assert d.notes == ("input is disconnected; decided over all components",)


def test_decide_disconnected_notes():
    g = build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    d = decide(g)
    assert isinstance(d, AllCyclesEqual) and d.r == 3
    assert d.notes


def test_witnesses_adjacent_hub_block():
    pair, status = extract_witnesses(book(1, 3, 2))
    assert status == "exact"
    assert sorted(len(c) for c in pair) == [3, 4]


def test_witnesses_oracle_fallback_k4():
    g = complete(4)
    pair, status = extract_witnesses(g)
    assert status == "exact"
    a, b = pair
    assert {len(a), len(b)} == {3, 4}
    assert is_simple_cycle(g, a) and is_simple_cycle(g, b)


def test_witnesses_cross_block():
    g = wedge(cycle(3), book(3, 6, 2))
    pair, status = extract_witnesses(g)
    assert status == "exact"
    assert sorted(len(c) for c in pair) == [3, 6]
    for c in pair:
        assert is_simple_cycle(g, c)


def test_witnesses_valid_on_random_rejections():
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 10)
        edges = set()
        for _ in range(rng.randint(n, n + 5)):
            u, v = rng.sample(range(n), 2)
            edges.add((u, v) if u < v else (v, u))
        g = build(n, sorted(edges))
        if not isinstance(decide(g), DistinctLengths):
            continue
        pair, status = extract_witnesses(g)
        assert status == "exact"
        a, b = pair
        assert len(a) != len(b)
        assert is_simple_cycle(g, a) and is_simple_cycle(g, b)
        checked += 1


@pytest.mark.parametrize("n", [6, 8, 14])
def test_witnesses_exact_on_complete_graphs(n):
    # once the oracle's cases: K_6 over a 4-vertex budget, K_8 under a
    # 1000-state guard, K_14 at the default 14-vertex limit
    g = complete(n)
    assert_exact_pair(g, *extract_witnesses(g))


def test_witnesses_exact_where_oracle_is_over_budget():
    # a 4-vertex budget once left K_6 without witnesses; the witness path
    # no longer consults the oracle, so the same graph gets an exact pair
    g = complete(6)
    with pytest.raises(OverBudgetError):
        cycle_spectrum(g, SearchBudget(max_vertices=4))
    pair, status = extract_witnesses(g)
    assert_exact_pair(g, pair, status)
    assert decide(g, witnesses=True).witness_status == "exact"


def petersen():
    return build(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def test_witnesses_exact_on_petersen():
    g = petersen()
    pair, status = extract_witnesses(g)
    assert_exact_pair(g, pair, status)
    assert {len(c) for c in pair} <= {5, 6, 8, 9}  # Petersen's cycle lengths


def test_bad_budget_raises_on_witness_path():
    # the witness path takes no budget: a stray one is refused, not ignored
    for call in (decide, extract_witnesses):
        with pytest.raises(TypeError):
            call(complete(6), budget=SearchBudget(max_vertices=0))


def test_over_budget_block_is_never_copied(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the witness path copied the block")

    monkeypatch.setattr(Block, "__init__", refuse)
    # Hamiltonian 20-cycle with two crossing chords: four hubs, no theta
    # shape, and more vertices than the oracle's default budget
    g = build(20, [(i, (i + 1) % 20) for i in range(20)] + [(0, 10), (5, 15)])
    d = decide(g, witnesses=True)
    assert isinstance(d, DistinctLengths) and d.witness_status == "exact"
    assert len(d.witness_a) < len(d.witness_b)
    assert is_simple_cycle(g, d.witness_a) and is_simple_cycle(g, d.witness_b)


def test_large_book_with_one_chord_is_exact():
    b = book(2, 4, 10**4)
    # a chord between the inner vertices of the last two pages, which the
    # chain replay reaches only after the book has taken every other page
    u, v = [x for x in range(b.vertex_count) if len(b.adjacency[x]) == 2][-2:]
    g = build(b.vertex_count, list(b.edges) + [(u, v)])
    d = decide(g, witnesses=True)
    assert isinstance(d, DistinctLengths) and d.shapes == (OtherShape("degree-profile"),)
    assert_exact_pair(g, (d.witness_a, d.witness_b), d.witness_status)
    assert [len(d.witness_a), len(d.witness_b)] == [3, 5]


@st.composite
def two_connected_graphs(draw):
    """A 2-connected graph of up to 60 vertices by ear decomposition: a
    cycle or an equal-path book, then ears between two distinct vertices
    (a chord is an ear of length 1), some of them hub-to-hub ears of
    page length that grow the book; ids and edge order shuffled."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))
        base = book(k, 2 * k, draw(st.integers(1, 50 // k)))
    else:
        k, base = None, cycle(draw(st.integers(3, 30)))
    n = base.vertex_count
    edges = set(base.edges)
    for _ in range(draw(st.integers(0, 6))):
        if k is not None and draw(st.booleans()):
            a, b, length = 0, k, k  # book(...) puts its hubs at 0 and k
        else:
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            length = draw(st.integers(1, 8))
        if a == b or n + length - 1 > 60 or (length == 1 and (min(a, b), max(a, b)) in edges):
            continue
        chain = [a, *range(n, n + length - 1), b]
        n += length - 1
        edges.update((min(e), max(e)) for e in zip(chain, chain[1:]))
    perm = draw(st.permutations(range(n)))
    return build(n, draw(st.permutations([(perm[u], perm[v]) for u, v in edges])))


@settings(max_examples=300, deadline=None)
@given(two_connected_graphs())
def test_every_rejection_of_a_large_block_is_exact(g):
    assert len(decompose(g).cycle_blocks) == 1
    d = decide(g, witnesses=True)
    if isinstance(d, DistinctLengths):
        assert_exact_pair(g, (d.witness_a, d.witness_b), d.witness_status)


def test_every_small_rejection_is_exact():
    # every labelled graph on <= 6 vertices; relabelling maps them onto
    # themselves, so each block shape meets every search order
    pairs = []
    for n in range(1, 7):
        pool = list(combinations(range(n), 2))
        for mask in range(1 << len(pool)):
            g = build(n, [e for i, e in enumerate(pool) if mask >> i & 1])
            d = decide(g, witnesses=True)
            if isinstance(d, DistinctLengths):
                a, b = d.witness_a, d.witness_b
                assert d.witness_status == "exact" and len(a) < len(b)
                assert is_simple_cycle(g, a) and is_simple_cycle(g, b)
                pairs.append((a, b))
    assert len(pairs) == 23637
    # every pair, in sweep order, is pinned: a change that moves a pair on
    # purpose updates this digest and names the moved pairs
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == "fbdbbffbb4a9927bd4493e3cacd654f532efe05552f6ee27b3af306bf3efabe5"


@pytest.mark.parametrize("g, pair", [
    # the first cycle's two arcs between the second chain's ends, with
    # that chain, are three paths of lengths 2, 2, 3 (THETA) or 2, 1, 2
    (THETA, ((0, 3, 1, 2), (0, 4, 5, 1, 2))),
    (book(1, 3, 2), ((0, 1, 2), (0, 3, 1, 2))),
    # B(2, 4, 3) and a page of length 3: the first three paths tie, and
    # the long page's chain, hub to hub, breaks the book they start
    (build(8, book(2, 4, 3).edges + ((0, 6), (6, 7), (7, 2))),
     ((0, 3, 2, 1), (0, 3, 2, 7, 6))),
    # the arcs at their edges, as (first cycle, second chain): the chain's
    # ends next on the cycle going forward, ([0, 2, 3, 1], [0, 4, 2]);
    # going backward, from a later vertex, ([0, 4, 1, 2], [2, 3, 1]); and
    # a forward arc that runs past the cycle's last vertex back to its
    # first, ([0, 3, 2, 1], [1, 3])
    (build(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (2, 4)]),
     ((0, 2, 4), (0, 1, 3, 2, 4))),
    (build(5, [(0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]),
     ((2, 1, 3), (2, 0, 4, 1, 3))),
    (build(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]),
     ((1, 3, 0), (1, 2, 3, 0))),
], ids=["unequal-paths", "endpoints-adjacent", "book-then-long-page",
        "ends-next-forward", "ends-next-backward", "arc-wraps"])
def test_two_hub_witnesses_replay_the_chains(g, pair):
    # a misshapen two-hub block's pair comes from replaying its chains,
    # as any misshapen block's; a hand-made shape and decomposition,
    # passed along, are ignored
    assert len(decompose(g).cycle_blocks) == 1
    assert decide(g).shapes[0].reason != "degree-profile"
    assert_exact_pair(g, pair, "exact")
    shapes = (OtherShape("endpoints-adjacent-structure"),)
    assert extract_witnesses(g, shapes, decomposition=decompose(g)) == (pair, "exact")


K4_C3 = wedge(complete(4), cycle(3))
C3_C4 = wedge(cycle(3), cycle(4))


@pytest.mark.parametrize("g, shapes", [
    # a well-shaped block called degree-profile
    (cycle(4), (OtherShape("degree-profile"),)),
    (book(2, 4, 2), (OtherShape("degree-profile"),)),
    (book(3, 6, 10**4), (OtherShape("degree-profile"),)),
    # the triangle's block claims r = 5
    (C3_C4, (CycleShape(5), CycleShape(4))),
    # the triangle's block is called misshapen by its chains
    (C3_C4, (OtherShape("unequal-path-lengths"), CycleShape(4))),
    # an accepted graph whose second triangle claims r = 4
    (wedge(cycle(3), cycle(3)), (CycleShape(3), CycleShape(4))),
    # an isolated vertex, which the pass finds without a given decomposition
    (build(4, [(0, 1), (1, 2), (2, 0)]), (CycleShape(4),)),
    # a K4 block called a cycle or a book
    (K4_C3, (CycleShape(4), CycleShape(3))),
    (K4_C3, (BookShape(2, 1), CycleShape(3))),
], ids=["degree-profile-C4", "degree-profile-B(2,4,2)", "degree-profile-B(3,6,10000)",
        "misstated-r", "other-shape-of-cycle-block", "cross-block-stated-r", "isolated-vertex",
        "K4-called-cycle", "K4-called-book"])
def test_shapes_other_than_the_blocks_own_raise(g, shapes):
    # decide's decomposition and extract_witnesses's shapes and
    # decomposition are accepted and ignored (these shapes raised
    # ValueError while they were checked): in the benchmark's call form,
    # shapes that misstate a block give the same pair, or the same
    # NotRejectedError, as a call without them
    def outcome(*args, **kwargs):
        try:
            return extract_witnesses(g, *args, **kwargs)
        except NotRejectedError as exc:
            return repr(exc)

    d = decompose(g)
    assert decide(g).shapes != shapes
    assert repr(decide(g, decomposition=d)) == repr(decide(g))
    assert outcome(shapes, decomposition=d) == outcome()


def test_other_shape_reasons_are_module_constants():
    for g, constant, reason in [
            (complete(4), recognition._DEGREE_PROFILE, "degree-profile"),
            (THETA, recognition._UNEQUAL_PATHS, "unequal-path-lengths"),
            (book(1, 3, 2), recognition._ENDPOINTS_ADJACENT, "endpoints-adjacent-structure")]:
        (shape,) = decide(g).shapes
        assert shape is constant and shape == OtherShape(reason)


def test_extract_witnesses_requires_rejection():
    with pytest.raises(NotRejectedError):
        extract_witnesses(cycle(5))
    with pytest.raises(NotRejectedError):
        extract_witnesses(path(4))


def test_decide_matches_brute_force_samples():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 9)
        edges = set()
        for _ in range(rng.randint(0, n + 4)):
            if n < 2:
                break
            u, v = rng.sample(range(n), 2)
            edges.add((u, v) if u < v else (v, u))
        g = build(n, sorted(edges))
        lengths = graph_cycle_lengths(g)
        d = decide(g)
        if not lengths:
            assert isinstance(d, Acyclic)
        elif len(lengths) == 1:
            assert isinstance(d, AllCyclesEqual) and d.r == lengths.pop()
        else:
            assert isinstance(d, DistinctLengths)
