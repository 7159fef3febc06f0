"""Immutable simple undirected graphs with edge-list I/O.

Vertices are dense integers 0..n-1.  Input files may use arbitrary
non-negative labels; they are remapped on parse and the original labels
are retained on the graph for reporting.
"""

from collections import deque

from .errors import (
    BadVertexError,
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownEdgeError,
)


class Graph:
    """Simple undirected graph.  Immutable after construction.

    `edges` is a sorted tuple of (u, v) pairs with u < v; `adjacency`
    is its symmetric closure as per-vertex sorted neighbor tuples.
    `labels` maps dense vertex ids back to the original input labels
    (None when the ids were used as-is).
    """

    __slots__ = ("vertex_count", "edges", "adjacency", "labels")

    def __init__(self, vertex_count, edges, labels=None):
        # edges must already be normalized: (u, v) with u < v, no duplicates
        self.vertex_count = vertex_count
        self.edges = tuple(sorted(edges))
        adj = [[] for _ in range(vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        # edges are sorted (u, v) pairs with u < v: each vertex meets its
        # smaller neighbours, ascending, then its larger ones, so no sort
        self.adjacency = tuple(map(tuple, adj))
        self.labels = tuple(labels) if labels is not None else None

    @property
    def edge_count(self):
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"Graph({self.vertex_count}, {len(self.edges)} edges)"


def _normalize_pair(u, v, vertex_count):
    if not (0 <= u < vertex_count):
        raise BadVertexError(u, vertex_count)
    if not (0 <= v < vertex_count):
        raise BadVertexError(v, vertex_count)
    if u == v:
        raise SelfLoopError(u)
    return (u, v) if u < v else (v, u)


def build(vertex_count, edge_pairs, labels=None):
    """Validate and construct a Graph from explicit edge pairs.

    Raises SelfLoopError, DuplicateEdgeError or BadVertexError rather
    than silently repairing the input.
    """
    seen = set()
    edges = []
    for u, v in edge_pairs:
        e = _normalize_pair(u, v, vertex_count)
        if e in seen:
            raise DuplicateEdgeError(u, v)
        seen.add(e)
        edges.append(e)
    return Graph(vertex_count, edges, labels)


def degree(g, v):
    if not (0 <= v < g.vertex_count):
        raise BadVertexError(v, g.vertex_count)
    return len(g.adjacency[v])


def connected_components(g):
    """Partition vertices into components, each a sorted list, ordered
    by least contained vertex."""
    seen = [False] * g.vertex_count
    comps = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def is_connected(g):
    return len(connected_components(g)) <= 1


def subdivide(g, e, t):
    """Replace edge e by a path of t+1 edges through t fresh vertices.

    t = 0 returns g unchanged; t < 0 raises TooSmallError.  Fresh
    vertices get ids n..n+t-1.
    """
    if t < 0:
        raise TooSmallError(f"negative subdivision count {t}")
    u, v = e
    key = (u, v) if u < v else (v, u)
    if key not in set(g.edges):
        raise UnknownEdgeError(u, v)
    if t == 0:
        return g
    n = g.vertex_count
    chain = [u] + list(range(n, n + t)) + [v]
    edges = [p for p in g.edges if p != key]
    for a, b in zip(chain, chain[1:]):
        edges.append((a, b) if a < b else (b, a))
    return Graph(n + t, edges)


def parse_edge_list(text):
    """Parse the line-oriented edge-list format.

    Lines starting with '#' and blank lines are ignored.  An optional
    first significant line `vertices N` fixes the vertex count, in
    which case ids must be < N and are used directly.  Without the
    header, labels are collected and remapped to dense ids.
    """
    header = None
    pairs = []  # (line_no, u, v)
    first_significant = True
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if first_significant and parts[0] == "vertices":
            if len(parts) != 2:
                raise ParseError(line_no, "malformed header, expected 'vertices <N>'")
            try:
                header = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"bad vertex count {parts[1]!r}") from None
            if header < 0:
                raise ParseError(line_no, "vertex count must be non-negative")
            first_significant = False
            continue
        first_significant = False
        if len(parts) != 2:
            raise ParseError(line_no, f"expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(line_no, "vertex ids must be non-negative")
        pairs.append((line_no, u, v))

    if header is not None:
        n = header
        remap = None
        labels = None
    else:
        labels_sorted = sorted({u for _, u, _ in pairs} | {v for _, _, v in pairs})
        remap = {lab: i for i, lab in enumerate(labels_sorted)}
        identity = all(lab == i for i, lab in enumerate(labels_sorted))
        labels = None if identity else labels_sorted
        n = len(labels_sorted)

    seen = set()
    edges = []
    for line_no, u, v in pairs:
        if remap is not None:
            u, v = remap[u], remap[v]
        elif u >= n or v >= n:
            raise ParseError(line_no, f"vertex id {max(u, v)} >= declared count {n}")
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges, labels)


def serialize_edge_list(g):
    """Canonical text form: header line, then sorted edges."""
    lines = [f"vertices {g.vertex_count}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
