"""Sharp edge-count bounds for graphs whose cycles all share one
length, the extremal constructions achieving them, and arithmetic
certificates that a graph must contain two distinct cycle lengths.

The paper proves the bounds for connected graphs, but they hold for
every simple graph.  Wedging one vertex of each of c components together
gives a connected graph on n - c + 1 vertices with the same edges and
cycle lengths, and both bounds strictly increase with n (the wedge keeps
the r vertices of an r-cycle, and one on at most 3 vertices has at most
3 < 2n - 4 edges).  With a target cycle length r given, the bounds
presume some cycle of length r exists.  certify_distinct is pure
arithmetic over (n, m, r); certify_graph checks that premise for a
concrete graph.
"""

from dataclasses import dataclass

from .errors import BadRangeError
from .generators import book, cycle, path, wedge
from .recognition import Acyclic, AllCyclesEqual, decide

RULE_WITH_R = "single-cycle-length edge bound for known r"
RULE_ANY_R = "single-cycle-length edge bound 2n-4 (any r)"


@dataclass(frozen=True)
class BoundReport:
    """Maximum edge count over n-vertex graphs whose cycle spectrum is
    {r} (r = None: maximum over all r, which is 2n-4), connected or not:
    a disconnected graph wedges into a connected one on fewer vertices.

    For even r, p and c are the extremal book page count and tail path
    length; for odd r they are the cycle count and tail path length."""

    n: int
    r: int | None
    bound: int
    p: int | None = None
    c: int | None = None


@dataclass(frozen=True)
class Certificate:
    n: int
    m: int
    r: int | None
    verdict: str  # "must_contain_distinct_lengths" | "inconclusive"
    cited_bound: int
    rule: str
    premises: tuple = ()  # what the graph must satisfy for the verdict to hold


def max_edges(n, r):
    """Edge bound for vertex count n and common cycle length r."""
    if r < 3:
        raise BadRangeError(f"cycle length {r} < 3")
    if n < r:
        raise BadRangeError(f"no cycle of length {r} fits in {n} vertices")
    if r % 2 == 0:
        half = r // 2
        p = (n - half - 1) // (half - 1)
        c = n - 2 - (half - 1) * (p + 1)
        return BoundReport(n, r, n - 1 + p, p, c)
    p = (n - 1) // (r - 1)
    c = n - 1 - p * (r - 1)
    return BoundReport(n, r, n - 1 + p, p, c)


def max_edges_any_r(n):
    """Edge bound 2n-4, independent of the common cycle length."""
    if n < 4:
        raise BadRangeError(f"bound needs n >= 4, got {n}")
    return BoundReport(n, None, 2 * n - 4)


def extremal(n, r):
    """A connected n-vertex graph with max_edges(n, r).bound edges and
    every cycle of length r.

    Even r: B(r/2, r, p) wedged with a path of length c.  Odd r: p
    copies of C_r and a path of length c, all wedged at one vertex.
    c = 0 wedges a single vertex, a no-op.
    """
    rep = max_edges(n, r)
    if r % 2 == 0:
        return wedge(book(r // 2, r, rep.p), path(rep.c))
    return wedge(*[cycle(r)] * rep.p, path(rep.c))


def certify_distinct(n, m, r=None):
    """Arithmetic certificate: a simple n-vertex graph with m edges (and,
    if r is given, a cycle of length r) must contain two cycles of
    different lengths whenever m exceeds the applicable bound.  It need
    not be connected: wedging its components together keeps m and the
    cycle lengths and lowers n, and with it the bound."""
    if m < 0:
        raise BadRangeError(f"negative edge count {m}")
    if r is None:
        rep = max_edges_any_r(n)
        rule = RULE_ANY_R
    else:
        rep = max_edges(n, r)
        rule = RULE_WITH_R
    verdict = (
        "must_contain_distinct_lengths" if m > rep.bound else "inconclusive"
    )
    premises = ("simple graph",)
    if r is not None:
        premises += (f"has a cycle of length {r}",)
    return Certificate(n, m, r, verdict, rep.bound, rule, premises)


def certify_graph(g, r=None):
    """certify_distinct for a concrete graph, which is simple by
    construction and need not be connected.  Without r no pass is made.
    With r, decide(g) checks the r-cycle premise: an acyclic graph, or
    one whose cycles all have another length, has no r-cycle.  A graph
    that decide rejects already has two cycle lengths, the conclusion."""
    if r is not None:
        d = decide(g)
        if isinstance(d, Acyclic) or (isinstance(d, AllCyclesEqual) and d.r != r):
            raise BadRangeError(f"graph has no cycle of length {r}")
    return certify_distinct(g.vertex_count, g.edge_count, r)
