import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from equicycle import (
    BadVertexError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    book,
    build,
    complete,
    cycle,
    cycle_spectrum,
    parse_edge_list,
    path,
    serialize_edge_list,
)
from equicycle import graph
from brute import (
    connected_components,
    graph_cycle_lengths,
    reference_build,
    reference_parse_edge_list,
    subdivide,
)


def test_build_triangle():
    g = build(3, [(0, 1), (1, 2), (2, 0)])
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build(2, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build(4, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build(4, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(BadVertexError):
        build(3, [(0, 3)])
    # a negative count, once a graph whose decide failed in bytearray(n)
    for pairs in ([], [(0, 1)]):
        with pytest.raises(TooSmallError):
            build(-1, pairs)


@st.composite
def pair_lists(draw):
    """A vertex count and pairs for build: distinct edges in any
    orientation, with bad pairs mixed in at any place: loops, repeats in
    either orientation, negative ids and ids >= n."""
    n = draw(st.integers(0, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=15,
                          unique_by=frozenset)) if n > 1 else []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["loop", "repeat", "negative", "beyond"]))
        if kind == "repeat" and pairs:
            u, v = draw(st.sampled_from(pairs))
            bad = draw(st.sampled_from([(u, v), (v, u)]))
        elif kind == "loop" and n:
            v = draw(st.integers(0, n - 1))
            bad = (v, v)
        else:
            odd = (draw(st.integers(-2 * n - 2, -1)) if kind == "negative"
                   else draw(st.sampled_from([n, n + 1, 2 * n, 2**63, 10**30])))
            other = draw(st.integers(-n - 1, n + 1))
            bad = draw(st.sampled_from([(odd, other), (other, odd)]))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return n, pairs


@settings(max_examples=500, deadline=None)
@given(pair_lists(), st.booleans(), st.booleans())
def test_build_matches_reference(case, as_generator, labelled):
    """build's one rule and first-fault walk raise what the seen-set
    loop raised, for the same pair, or give the same graph."""
    n, pairs = case
    labels = [f"v{i}" for i in range(n)] if labelled else None
    try:
        expected = reference_build(n, pairs, labels)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            build(n, iter(pairs) if as_generator else pairs, labels)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    g = build(n, iter(pairs) if as_generator else pairs, labels)
    assert (g.vertex_count, g.adjacency, g.labels) == (
        expected.vertex_count, expected.adjacency, expected.labels)


def test_degree_sum_is_twice_edges():
    for g in (cycle(6), complete(5), book(2, 4, 3), path(4)):
        assert sum(map(len, g.adjacency)) == 2 * len(g.edges)


def test_connected_components():
    assert connected_components(cycle(3)) == [[0, 1, 2]]
    two = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert connected_components(two) == [[0, 1, 2], [3, 4, 5]]
    assert connected_components(build(1, [])) == [[0]]


def test_subdivide_once_grows_cycle():
    c4 = subdivide(cycle(3), (0, 1), 1)
    assert c4.vertex_count == 4 and c4.edge_count == 4
    assert graph_cycle_lengths(c4) == {4}


def test_subdivide_zero_is_identity():
    g = cycle(3)
    assert subdivide(g, (0, 1), 0) == g


def test_subdivide_k5_uniformly():
    # subdividing every edge d times scales girth to 3+3d and
    # circumference to 5+5d
    g = complete(5)
    d = 1
    for e in list(g.edges):
        g = subdivide(g, e, d)
    from equicycle import SearchBudget

    report = cycle_spectrum(g, SearchBudget(max_vertices=15))
    assert report.girth == 3 + 3 * d
    assert report.circumference == 5 + 5 * d


def test_parse_with_header():
    g = parse_edge_list("vertices 3\n0 1\n1 2\n2 0\n")
    assert g == cycle(3)


def test_parse_without_header_infers_ids():
    g = parse_edge_list("0 1\n1 2\n")
    assert g == path(2)


def test_parse_remaps_sparse_labels():
    g = parse_edge_list("10 40\n40 20\n")
    assert g.vertex_count == 3
    assert g.labels == (10, 20, 40)


def test_parse_comments_and_blanks():
    g = parse_edge_list("# triangle\n\nvertices 3\n0 1\n# middle\n1 2\n2 0\n")
    assert g == cycle(3)


@pytest.mark.parametrize(
    "text,line",
    [
        ("0 0\n", 1),
        ("vertices 2\n0 1\n0 3\n", 3),
        ("0 1\n1 0\n", 2),
        ("0 1 2\n", 1),
        ("a b\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text, message", [
    ("5 7\n7 5", "line 2: duplicate edge (7, 5)"),
    ("5 7\n7 9\n9 9", "line 3: self-loop at vertex 9"),
])
def test_line_loop_errors_name_input_labels(text, message):
    # without a header the ids are remapped to 0..n-1, but the messages
    # name the labels as written
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert str(exc.value) == message


def test_roundtrip():
    for g in (cycle(5), book(2, 4, 4), build(4, []), path(0)):
        assert parse_edge_list(serialize_edge_list(g)) == g


@st.composite
def labelled_edge_lists(draw):
    """Distinct edges on distinct non-negative labels, in any
    orientation, as the pairs and as headerless `u v` lines."""
    labels = draw(st.lists(st.integers(0, 10**12), min_size=2, max_size=12, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels))
                          .filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=30, unique_by=frozenset))
    return pairs, "".join(f"{u} {v}\n" for u, v in pairs)


@settings(max_examples=300, deadline=None)
@given(labelled_edge_lists(), st.data())
def test_parse_serialize_roundtrip_keeps_labelled_edges(case, data):
    pairs, text = case
    g = parse_edge_list(text)
    names = g.labels or range(g.vertex_count)
    assert {frozenset((names[u], names[v])) for u, v in g.edges} == set(map(frozenset, pairs))
    assert parse_edge_list(serialize_edge_list(g)) == g
    # comments, blank lines and CRLF around the same edges give the same graph
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = text.splitlines()
    extras = data.draw(st.lists(st.sampled_from(["# comment", "#", "", "  "]), max_size=3))
    for extra in ["# comment", *extras]:
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    decorated = end.join(lines) + end
    h = parse_edge_list(decorated)
    assert (h.vertex_count, h.adjacency, h.labels) == (g.vertex_count, g.adjacency, g.labels)


def test_isolated_vertices_survive_header():
    g = parse_edge_list("vertices 5\n0 1\n")
    assert g.vertex_count == 5
    assert connected_components(g) == [[0, 1], [2], [3], [4]]


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] < e[1])),
        st.randoms(use_true_random=False),
    )))
def test_adjacency_sorted_for_any_edge_order(case):
    n, edge_set, rng = case
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edge_set]
    rng.shuffle(pairs)
    for g in (build(n, pairs), Graph(n, pairs)):
        for v in range(n):
            expected = sorted({b for a, b in edge_set if a == v} | {a for a, b in edge_set if b == v})
            assert g.adjacency[v] == tuple(expected)
        assert g.edges == tuple(sorted(edge_set))


def test_constructor_sorts_unnormalised_pairs():
    g = Graph(3, [(0, 2), (1, 0)])
    assert g.adjacency == ((1, 2), (0,), (0,))
    assert g.edges == ((0, 1), (0, 2))
    assert g == build(3, [(0, 1), (0, 2)]) and g.edge_count == 2


SPACES = st.sampled_from([" ", " ", "  ", "\t", "\u3000", "\xa0"])
BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\u2028"])
ODD_IDS = ["+5", "1_0", "-3", "007", "x", "\u0663", "\xb2", "10" * 30, "4" * 5000]
HEADERS = ["vertices {}", "vertices {}", "vertices", "vertices {} 1", "vertices x",
           "vertices -1", "vertices +{}", "  vertices\t{}  ", "vertices " + "4" * 5000]


@st.composite
def clean_texts(draw):
    """Well-formed edge lists, with or without a header, dense or sparse
    labels, in any orientation.  Half are laid out as
    serialize_edge_list writes them; the rest may use other whitespace,
    CRLF or blank lines."""
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=20,
                          unique_by=lambda e: frozenset(e)))
    dense = draw(st.booleans())
    labels = (list(range(n)) if dense
              else draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True)))
    canonical = draw(st.booleans())
    space = st.just(" ") if canonical else SPACES
    lines = [f"{labels[u]}{draw(space)}{labels[v]}" for u, v in pairs]
    if dense and draw(st.booleans()):  # N = n - 1 leaves an id >= N if n - 1 is used
        lines.insert(0, f"vertices {n + draw(st.integers(-1, 2))}")
    if not canonical and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  \t"])))
    end = "\n" if canonical else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def messy_texts(draw):
    """Lines of every kind the line reader must judge: comments, blanks,
    headers good and bad, odd tokens, loops, duplicates, ids >= N, one
    or three tokens, under mixed whitespace and line breaks.  A third
    keeps serialize_edge_list's layout, so that loops, duplicates and
    ids >= N also meet the bulk reader."""
    canonical = draw(st.integers(0, 2)) == 0
    ids = st.integers(0, 8).map(str)
    if not canonical:
        ids = st.one_of(ids, st.sampled_from(ODD_IDS))
    out = []
    if canonical and draw(st.booleans()):
        out.append(f"vertices {draw(st.integers(0, 9))}\n")
    for _ in range(draw(st.integers(0, 10))):
        kind = "edge" if canonical else draw(
            st.sampled_from(["edge"] * 6 + ["comment", "blank", "one", "three", "header"]))
        if kind == "edge":
            line = f"{draw(ids)}{' ' if canonical else draw(SPACES)}{draw(ids)}"
        elif kind == "comment":
            line = draw(st.sampled_from(["# note", "  #", "1 2 # trailing"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t\u3000"]))
        elif kind == "one":
            line = draw(ids)
        elif kind == "three":
            line = " ".join(draw(ids) for _ in range(3))
        else:
            line = draw(st.sampled_from(HEADERS)).format(draw(st.integers(0, 9)))
        if canonical:
            out.append(line + "\n")
        else:
            out.append(draw(SPACES) * draw(st.integers(0, 1)) + line + draw(BREAKS))
    return "".join(out)


@settings(max_examples=600, deadline=None)
@given(st.one_of(clean_texts(), messy_texts()))
def test_parse_matches_line_by_line_reference(text):
    assert_parses_as_reference(text)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=200, deadline=None)
@given(text=st.one_of(clean_texts(), messy_texts()))
def test_parse_matches_reference_at_any_chunk_size(chunk, text):
    # tiny chunks put a chunk boundary after almost every line
    with mock.patch.object(graph, "_CHUNK", chunk):
        assert_parses_as_reference(text)


def assert_parses_as_reference(text):
    try:
        expected = reference_parse_edge_list(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_edge_list(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    g = parse_edge_list(text)
    assert (g.vertex_count, g.adjacency, g.edges, g.labels) == (
        expected.vertex_count, expected.adjacency, expected.edges, expected.labels)


# paired out of step after a bad line, these ids still make no loop or duplicate
EDGE_LINES = [f"{i} {i + 40}" for i in range(30)]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("bad", ["5", "3  3", "7 8 9", "5\n6 7 8"])
def test_bad_line_at_every_chunk_boundary(monkeypatch, chunk, bad):
    """A bad line gives the line loop's error and line number wherever the
    chunks fall: as the first or last line of a chunk, or inside one.
    The last case keeps the token count even, so only the layout check
    can send it to the line loop."""
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    for at in range(len(EDGE_LINES) + 1):
        for header in ([], ["vertices 100"]):
            text = "\n".join(header + EDGE_LINES[:at] + [bad] + EDGE_LINES[at:]) + "\n"
            with pytest.raises(ParseError) as expected:
                reference_parse_edge_list(text)
            with pytest.raises(ParseError) as got:
                parse_edge_list(text)
            assert (str(got.value), got.value.line) == (str(expected.value), expected.value.line)
            assert got.value.line == len(header) + at + 1


# one odd line among serialize_edge_list's lines: each must fail the
# bulk layout check, or pass it and read as the line loop reads it
ODD_LINES = ([f"{odd} 77" for odd in ODD_IDS]
             + ["5\t77", "5  77", " 5 77", "5 77 "]  # other whitespace
             + [f"5 77{end}6 78" for end in ("\r\n", "\r", "\x0c", "\u2028")]
             + ["5\n6 7 8",  # one token, then three: an even count
                # a one-token line with a space, then a one-token line: as
                # the last lines of a text without a final newline, they
                # leave the skeleton of two canonical lines
                "5 \n77", " 5\n77"])


@pytest.mark.parametrize("chunk", [1, 7, 64, graph._CHUNK])
@pytest.mark.parametrize("odd", ODD_LINES)
def test_skeleton_rule_at_one_odd_line(monkeypatch, chunk, odd):
    """The odd line in the middle or last, with and without a header and
    a final newline, parses as the line-by-line reference parses it."""
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    for header in ([], ["vertices 100"]):
        for at in (len(EDGE_LINES) // 2, len(EDGE_LINES)):
            for end in ("\n", ""):
                lines = header + EDGE_LINES[:at] + [odd] + EDGE_LINES[at:]
                assert_parses_as_reference("\n".join(lines) + end)


@pytest.mark.parametrize("chunk", [1, 7, 64, graph._CHUNK])
def test_ids_beyond_int64_go_through_the_line_loop(monkeypatch, chunk):
    # named for the separate line loop that once took these ids; the one
    # reader now moves its ids from an int64 array to a list
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    top = 2**63 - 1
    fits = f"{top} 5\n5 {top - 1}\n"
    assert parse_edge_list(fits).labels == (5, top - 1, top)
    for big in (2**63, 2**64 + 3, 10**30):
        text = f"{big} 5\n5 {top}\n{top} {big}\n"
        g = parse_edge_list(text)
        expected = reference_parse_edge_list(text)
        assert g.labels == expected.labels == (5, top, big)
        assert g.adjacency == expected.adjacency == ((1, 2), (0, 2), (0, 1))


@pytest.mark.parametrize("chunk", [1, 7, 64, graph._CHUNK])
def test_header_file_without_final_newline_is_read_in_bulk(monkeypatch, chunk):
    # named for the bulk reader that once took only this layout
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    text = "vertices 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0"
    g = parse_edge_list(text)
    assert g == parse_edge_list(text + "\n") == cycle(6)


def test_adjacency_shares_one_int_per_vertex():
    """Ids above 256 are not cached by the interpreter, so the parse must
    hand every vertex one int object, shared by all its appearances."""
    n = 700
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 350) % n) for i in range(0, 350, 3)]
    for text in (f"vertices {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs),
                 "".join(f"{10**12 + 7 * v} {10**12 + 7 * u}\n" for u, v in pairs)):
        g = parse_edge_list(text)
        assert g.edge_count == len(pairs)
        assert len({id(x) for t in g.adjacency for x in t}) <= g.vertex_count == n


def test_bulk_parse_holds_no_token_list():
    """Parsing never holds what `text.split()` of the whole file holds:
    its peak above the graph it returns is below the token list's, in
    serialize_edge_list's layout, with CRLF line ends, after a leading
    comment line, and with no header and sparse shuffled labels, where
    the ids are remapped through a dict."""
    rng = random.Random(3)
    n = 10_000
    edges = set()
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    text = serialize_edge_list(Graph(n, edges))
    labels = rng.sample(range(10**9), n)
    shuffled = rng.sample(sorted(edges), len(edges))
    sparse = "".join(f"{labels[u]} {labels[v]}\n" for u, v in shuffled)
    for text in (text, text.replace("\n", "\r\n"), "# comment\n" + text, sparse):
        tracemalloc.start()
        try:
            g = parse_edge_list(text)
            retained, parse_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tokens = text.split()
            split_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert g.edge_count == len(edges) and tokens
        assert parse_peak - retained < split_peak
