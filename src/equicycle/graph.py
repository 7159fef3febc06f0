"""Immutable simple undirected graphs with edge-list I/O.

Vertices are dense integers 0..n-1.  A graph is its per-vertex sorted
neighbour tuples; the sorted edge tuple is derived from them on first
use.  Input files may use arbitrary non-negative labels; they are
remapped on parse and the original labels are retained on the graph for
reporting.
Text in serialize_edge_list's layout is read in bounded chunks, and
every vertex gets one int object; comments, blank lines, tabs, runs of
spaces, CRLF and ids >= 2**63 take the line-by-line reader instead.
"""

from array import array

from .errors import (
    BadVertexError,
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownEdgeError,
)

_CHUNK = 1 << 16  # characters per chunk of the bulk reader, rounded up to whole lines


class Graph:
    """Simple undirected graph.  Immutable after construction.

    `adjacency` holds each vertex's neighbours as a sorted tuple.
    `edges` is the sorted tuple of (u, v) pairs with u < v, derived from
    `adjacency` when first read.  `labels` maps dense vertex ids back to
    the original input labels (None when the ids were used as-is).

    The constructor takes distinct pairs of distinct vertices in
    range(vertex_count), in any order and orientation, and does not
    check them; `build` does.
    """

    __slots__ = ("vertex_count", "adjacency", "labels", "_edges")

    def __init__(self, vertex_count, edges, labels=None):
        adj = [[] for _ in range(vertex_count)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        self.vertex_count = vertex_count
        self.adjacency = tuple(map(tuple, adj))
        self.labels = tuple(labels) if labels is not None else None
        self._edges = None

    @classmethod
    def _of_sorted(cls, adjacency, labels):
        """The graph of these sorted neighbour tuples, taken unchecked."""
        g = cls.__new__(cls)
        g.vertex_count, g.adjacency, g._edges = len(adjacency), adjacency, None
        g.labels = tuple(labels) if labels is not None else None
        return g

    @property
    def edges(self):
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v)
        return self._edges

    @property
    def edge_count(self):
        return sum(map(len, self.adjacency)) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.vertex_count, self.adjacency))

    def __repr__(self):
        return f"Graph({self.vertex_count}, {self.edge_count} edges)"


def build(vertex_count, edge_pairs, labels=None):
    """Validate and construct a Graph from explicit edge pairs.

    Raises SelfLoopError, DuplicateEdgeError or BadVertexError rather
    than silently repairing the input.
    """
    seen = set()
    edges = []
    for u, v in edge_pairs:
        if not (0 <= u < vertex_count):
            raise BadVertexError(u, vertex_count)
        if not (0 <= v < vertex_count):
            raise BadVertexError(v, vertex_count)
        if u == v:
            raise SelfLoopError(u)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(u, v)
        seen.add(e)
        edges.append(e)
    return Graph(vertex_count, edges, labels)


def degree(g, v):
    if not (0 <= v < g.vertex_count):
        raise BadVertexError(v, g.vertex_count)
    return len(g.adjacency[v])


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

    Text laid out as serialize_edge_list writes it is read in bulk, in
    bounded chunks.  Anything else, and any loop, duplicate or id >= N,
    goes through the line-by-line reader, which reports the first bad line.
    """
    g = _parse_bulk(text)
    return g if g is not None else _parse_lines(text)


def _parse_bulk(text):
    """The graph of text made of an optional `vertices N` line and at
    least one `u v` line: single spaces, '\n' line ends, ASCII-digit ids
    below 2**63, no loop, duplicate or id >= N.  None for any other text.
    The ids go through chunks of whole lines into one int64 array, and
    the adjacency through a table of one int object per vertex."""
    end = len(text)
    while end and text[end - 1] == "\n":
        end -= 1
    pos = 0
    n = None
    if text.startswith("vertices "):
        pos = text.find("\n", 0, end) + 1
        header = text[9:pos - 1]
        if not (pos and header.isascii() and header.isdigit() and len(header) < 19):
            return None  # an N of 19 digits or more is left to the line loop
        n = int(header)
    ids = array("q")
    while pos < end:
        stop = text.find("\n", pos + _CHUNK, end)
        if stop < 0:
            stop = end
        chunk = text[pos:stop]
        tokens = chunk.split()
        # the chunk is its tokens, two to a line: no blank line, comment,
        # other whitespace, or line of another length
        if (chunk != "\n".join(map(" ".join, zip(tokens[0::2], tokens[1::2])))
                or not (chunk.isascii() and "".join(tokens).isdigit())):
            return None
        try:
            ids.fromlist(list(map(int, tokens)))
        except (OverflowError, ValueError):  # beyond int64, or the digit limit
            return None
        pos = stop + 1
    if not ids:
        return None
    del chunk, tokens  # the last chunk's, before the graph allocates
    labels = None
    if n is None:
        labels = sorted(set(ids))
        n = len(labels)
    table = list(range(n))  # the one int object of each vertex
    if labels and labels[-1] == n - 1:
        labels = None  # the ids are already 0..n-1
    elif labels:
        table = dict(zip(labels, table))  # its values are the same ints
    adj = [[] for _ in range(n)]
    ends = iter(ids)
    try:
        for u, v in zip(ends, ends):
            u, v = table[u], table[v]
            adj[u].append(v)
            adj[v].append(u)
    except IndexError:  # an id >= N
        return None
    # a loop or a duplicate edge puts one neighbour twice into a vertex's list
    if sum(map(len, map(set, adj))) != len(ids):
        return None
    for v, nbrs in enumerate(adj):
        nbrs.sort()
        adj[v] = tuple(nbrs)  # each list is freed as its tuple is made
    return Graph._of_sorted(tuple(adj), labels)


def _parse_lines(text):
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

    n, remap, labels = header, None, None
    if header is None:
        labels = sorted({u for _, u, _ in pairs} | {v for _, _, v in pairs})
        n = len(labels)
        remap = {lab: i for i, lab in enumerate(labels)}
        if not labels or labels[-1] == n - 1:
            labels = None  # the labels are already 0..n-1

    seen = set()
    edges = []
    for line_no, a, b in pairs:  # input labels, named in the messages
        if remap is not None:
            u, v = remap[a], remap[b]
        elif a >= n or b >= n:
            raise ParseError(line_no, f"vertex id {max(a, b)} >= declared count {n}")
        else:
            u, v = a, b
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {a}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(line_no, f"duplicate edge ({a}, {b})")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges, labels)


def serialize_edge_list(g):
    """Canonical text form: header line, then sorted edges."""
    lines = [f"vertices {g.vertex_count}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
