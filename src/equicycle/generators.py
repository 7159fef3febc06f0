"""Named graph families: cycles, paths, complete graphs, generalized
books, and wedge sums."""

from dataclasses import dataclass

from .errors import BadParamsError, TooSmallError
from .graph import Graph, build


@dataclass(frozen=True)
class BookParams:
    """Parameters of the generalized book B(n, L, p): p cycles of
    length L glued over a common path of n edges (the spine).

    p = 1 is permitted only when L = 2n, in which case the result is
    the plain cycle C_L.
    """

    n: int
    L: int
    p: int

    def validate(self):
        if self.L < 3:
            raise BadParamsError(f"cycle length {self.L} < 3")
        if self.n < 1:
            raise BadParamsError(f"spine length {self.n} < 1")
        if self.p < 1:
            raise BadParamsError(f"page count {self.p} < 1")
        if self.p == 1:
            if self.L != 2 * self.n:
                raise BadParamsError(
                    f"p = 1 requires L = 2n, got L={self.L}, n={self.n}"
                )
        elif self.n > self.L - 2:
            raise BadParamsError(
                f"spine length {self.n} > L-2 = {self.L - 2} breaks simplicity"
            )


@dataclass(frozen=True)
class WedgeSpec:
    """Summands of a wedge sum; the vertex 0 of every summand is
    identified into a single vertex."""

    summands: tuple


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


def book(params):
    """The generalized book B(n, L, p).

    Vertex numbering is deterministic: spine vertices 0..n first, then
    page vertices in page order, so output is reproducible.
    """
    params.validate()
    n, L, p = params.n, params.L, params.p
    edges = [(i, i + 1) for i in range(n)]
    nxt = n + 1
    for _ in range(p):
        # page path from spine vertex 0 to spine vertex n, L-n edges
        chain = [0] + list(range(nxt, nxt + L - n - 1)) + [n]
        nxt += L - n - 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    return build(nxt, edges)


def wedge(spec):
    """Wedge sum: disjoint union with every summand's vertex 0
    identified into one vertex, the result's vertex 0.  With a single
    summand this is the identity."""
    summands = spec.summands
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
