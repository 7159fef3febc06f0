import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicycle import (
    BookParams,
    BudgetExceededError,
    OverBudgetError,
    SearchBudget,
    WedgeSpec,
    book,
    build,
    complete,
    complete_bipartite,
    cycle,
    cycle_spectrum,
    girth,
    path,
    subdivide,
    wedge,
)

from brute import (
    circumference,
    graph_cycle_lengths,
    is_simple_cycle,
    random_connected_edges,
    reference_cycle_spectrum,
)
from structured import structured_graphs


@st.composite
def small_graphs(draw):
    """Any graph on 1 to 9 vertices: each vertex pair is an edge or not."""
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build(n, [e for e, k in zip(pairs, keep) if k])


any_graphs = st.one_of(structured_graphs(), small_graphs())


def test_girth_examples():
    assert girth(cycle(7)) == 7
    assert girth(path(5)) is None
    assert girth(complete_bipartite(3, 3)) == 4
    assert girth(complete(4)) == 3


def test_girth_matches_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(3, 10)
        g = build(n, random_connected_edges(rng, n, rng.randint(0, 6)))
        lengths = graph_cycle_lengths(g)
        assert girth(g) == (min(lengths) if lengths else None)


def test_spectrum_k4():
    report = cycle_spectrum(complete(4))
    assert report.lengths == (3, 4)
    assert report.girth == 3 and report.circumference == 4


def test_spectrum_book():
    assert cycle_spectrum(book(BookParams(2, 4, 3))).lengths == (4,)


def test_spectrum_wedge():
    report = cycle_spectrum(wedge(WedgeSpec((cycle(3), cycle(5)))))
    assert report.lengths == (3, 5)


def test_spectrum_witnesses_are_valid():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(3, 9)
        g = build(n, random_connected_edges(rng, n, rng.randint(0, 5)))
        report = cycle_spectrum(g)
        for length, w in report.witnesses.items():
            assert len(w) == length
            assert is_simple_cycle(g, w)
        assert set(report.lengths) == graph_cycle_lengths(g)


def test_circumference_examples():
    assert circumference(cycle(6)) == 6
    wide = SearchBudget(max_vertices=15)
    g = complete(5)
    for e in list(g.edges):
        g = subdivide(g, e, 1)
    assert circumference(g, wide) == 10
    g = complete_bipartite(3, 3)
    for e in list(g.edges):
        g = subdivide(g, e, 1)
    assert circumference(g, wide) == 12
    assert circumference(path(3)) is None


def test_girth_antimonotone_circumference_monotone():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(4, 10)
        g = build(n, random_connected_edges(rng, n, rng.randint(1, 6)))
        keep = [e for e in g.edges if rng.random() < 0.8]
        h = build(n, keep)
        gl = graph_cycle_lengths(g)
        hl = graph_cycle_lengths(h)
        if gl and hl:
            assert min(gl) <= min(hl)
            assert max(hl) <= max(gl)


def test_singleton_spectrum_is_hereditary():
    # if all cycles of G share one length, so do those of any subgraph
    rng = random.Random(13)
    pool = [
        wedge(WedgeSpec((cycle(4), book(BookParams(2, 4, 2))))),
        book(BookParams(3, 6, 3)),
        wedge(WedgeSpec((cycle(5), cycle(5), path(2)))),
    ]
    for g in pool:
        (single,) = graph_cycle_lengths(g)
        for _ in range(20):
            keep = [e for e in g.edges if rng.random() < 0.7]
            sub = graph_cycle_lengths(build(g.vertex_count, keep))
            assert sub <= {single}


def test_over_budget():
    with pytest.raises(OverBudgetError):
        cycle_spectrum(cycle(15))
    with pytest.raises(OverBudgetError):
        cycle_spectrum(cycle(5), SearchBudget(max_vertices=4))


def test_state_guard():
    with pytest.raises(BudgetExceededError):
        cycle_spectrum(complete(9), SearchBudget(max_visited_states=100))


def test_determinism():
    g = complete(6)
    a = cycle_spectrum(g)
    b = cycle_spectrum(g)
    assert a == b


def spectrum_outcome(spectrum, g, budget):
    try:
        report = spectrum(g, budget)
    except BudgetExceededError as exc:
        return "guard tripped", exc.states, str(exc)
    return report, list(report.witnesses.items())


@settings(max_examples=300, deadline=None)
@given(any_graphs, st.integers(1, 20_000))
def test_spectrum_matches_reference(g, max_states):
    # same report, witness order, and guard trip at the same state count
    budget = SearchBudget(max_vertices=g.vertex_count, max_visited_states=max_states)
    assert (spectrum_outcome(cycle_spectrum, g, budget)
            == spectrum_outcome(reference_cycle_spectrum, g, budget))
