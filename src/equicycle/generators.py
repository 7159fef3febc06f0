"""Named graph families: cycles, paths, complete graphs, generalized
books, and wedge sums."""

from .errors import BadParamsError, TooSmallError
from .graph import Graph, build


def cycle(m):
    """The cycle graph C_m."""
    if m < 3:
        raise TooSmallError(f"no simple cycle of length {m}")
    return build(m, [(i, (i + 1) % m) for i in range(m)])


def path(m):
    """The path graph P_m: m edges on m+1 vertices.  P_0 is a single
    isolated vertex."""
    if m < 0:
        raise TooSmallError(f"negative path length {m}")
    return build(m + 1, [(i, i + 1) for i in range(m)])


def complete(m):
    """The complete graph K_m."""
    if m < 1:
        raise TooSmallError(f"complete graph needs >= 1 vertex, got {m}")
    return build(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def complete_bipartite(a, b):
    """The complete bipartite graph K_{a,b}; part A is vertices 0..a-1."""
    if a < 1 or b < 1:
        raise TooSmallError(f"both parts must be non-empty, got {a}, {b}")
    return build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def book(n, L, p):
    """The generalized book B(n, L, p): p cycles of length L glued over
    a common path of n edges (the spine).  p = 1 is permitted only when
    L = 2n, in which case the result is the plain cycle C_L.

    Vertex numbering is deterministic: spine vertices 0..n first, then
    page vertices in page order, so output is reproducible.
    """
    if L < 3:
        raise BadParamsError(f"cycle length {L} < 3")
    if n < 1:
        raise BadParamsError(f"spine length {n} < 1")
    if p < 1:
        raise BadParamsError(f"page count {p} < 1")
    if p == 1:
        if L != 2 * n:
            raise BadParamsError(f"p = 1 requires L = 2n, got L={L}, n={n}")
    elif n > L - 2:
        raise BadParamsError(f"spine length {n} > L-2 = {L - 2} breaks simplicity")
    edges = [(i, i + 1) for i in range(n)]
    nxt = n + 1
    for _ in range(p):
        # page path from spine vertex 0 to spine vertex n, L-n edges
        chain = [0] + list(range(nxt, nxt + L - n - 1)) + [n]
        nxt += L - n - 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    return build(nxt, edges)


def wedge(*summands):
    """Wedge sum of the graphs summands: their disjoint union with every
    summand's vertex 0 identified into one vertex, the result's vertex
    0.  With a single summand this is the identity."""
    if not summands:
        raise BadParamsError("wedge needs at least one summand")
    for g in summands:
        if g.vertex_count == 0:
            raise BadParamsError(f"base vertex 0 invalid for {g!r}")

    edges = list(summands[0].edges)
    total = summands[0].vertex_count
    for g in summands[1:]:
        # vertex 0 stays 0; vertex v > 0 follows the vertices placed so far
        offset = total - 1
        total += g.vertex_count - 1
        for u, v in g.edges:
            edges.append((u + offset if u else 0, v + offset))
    return Graph(total, edges)
