"""Immutable simple undirected graphs with edge-list I/O.

Vertices are dense integers 0..n-1.  A graph is its per-vertex sorted
neighbour tuples; the sorted edge tuple is derived from them on first
use.  Input files may use arbitrary non-negative labels; they are
remapped on parse and the original labels are retained on the graph for
reporting.
Graph.__init__ is the only adjacency build; build and parse_edge_list
check what it built by one rule, and only when that fails does one walk
over the pairs find the first bad one.  Text of any layout is read in
bounded chunks of whole lines; one byte-skeleton check per chunk sends
serialize_edge_list's layout past the line loop.  The ids are mapped
once into one dense list, in which every vertex has one int object.
"""

import sys
from array import array
from itertools import islice

from .errors import (
    BadVertexError,
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownEdgeError,
)

_CHUNK = 1 << 16  # characters per chunk of the reader, rounded up to whole lines


class Graph:
    """Simple undirected graph.  Immutable after construction.

    `adjacency` holds each vertex's neighbours as a sorted tuple.
    `edges` is the sorted tuple of (u, v) pairs with u < v, derived from
    `adjacency` when first read.  `labels` maps dense vertex ids back to
    the original input labels (None when the ids were used as-is).

    The constructor takes distinct pairs of distinct vertices in
    range(vertex_count), in any orientation, unchecked; `build` checks.
    """

    __slots__ = ("vertex_count", "adjacency", "labels", "_edges")

    def __init__(self, vertex_count, edges, labels=None):
        adj = [[] for _ in range(vertex_count)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for v, nbrs in enumerate(adj):
            nbrs.sort()
            adj[v] = tuple(nbrs)  # each list is freed as its tuple is made
        self.vertex_count = vertex_count
        self.adjacency = tuple(adj)
        self.labels = tuple(labels) if labels is not None else None
        self._edges = None

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


def _simple(adjacency, ends):
    """The rule on lists built from pairs with `ends` ends in range(n):
    no list holds a neighbour twice, as a loop or repeated edge would."""
    return sum(map(len, map(set, adjacency))) == ends


def _first_fault(n, pairs):
    """(index, build's error) of the first pair with an end outside
    range(n), equal ends, or an edge seen before."""
    seen = set()
    for i, (u, v) in enumerate(pairs):
        for x in (u, v):
            if not 0 <= x < n:
                return i, BadVertexError(x, n)
        if u == v:
            return i, SelfLoopError(u)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return i, DuplicateEdgeError(u, v)
        seen.add(e)


def build(vertex_count, edge_pairs, labels=None):
    """Validate and construct a Graph from explicit edge pairs.

    The pairs must make a simple graph: ends in range(vertex_count), no
    loop, no edge twice in either orientation.  The first bad pair raises
    BadVertexError, SelfLoopError or DuplicateEdgeError; nothing is repaired.
    """
    pairs = list(edge_pairs)  # walked again when the rule fails
    try:
        g = Graph(vertex_count, pairs, labels)
    except IndexError:  # an end >= vertex_count, or < -vertex_count
        g = None
    # an end in -vertex_count..-1 indexes a list, and is then first in some tuple
    if (g is None or not _simple(g.adjacency, 2 * len(pairs))
            or pairs and min(filter(None, g.adjacency))[0] < 0):
        raise _first_fault(vertex_count, pairs)[1]
    return g


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

    Lines starting with '#' and blank lines are ignored; lines end where
    str.splitlines ends them.  An optional first significant line
    `vertices N` fixes the vertex count, in which case ids must be < N
    and are used directly.  Without the header, labels are collected
    and remapped to dense ids.  ParseError names the first bad line; a
    loop, duplicate or id >= N is looked for, by build's rule, once
    every line has been read, and is named by its input labels.
    """
    header, ids = _read(text)
    n, labels = header, None
    if header is None:
        labels = sorted(set(ids))
        n = len(labels)
    elif n > sys.maxsize:  # more vertices than a list can hold
        raise MemoryError
    table = list(range(n))  # the one int object of each vertex
    if not labels or labels[-1] == n - 1:
        labels = None  # the ids are already 0..n-1
    else:
        table = dict(zip(labels, table))  # its values are the same ints
    try:  # one pointer per id, where the array held 8 bytes
        ends = list(map(table.__getitem__, ids))
    except IndexError:  # an id >= N
        ends = None
    del ids, table  # before the build
    g = None if ends is None else Graph(n, zip(*[iter(ends)] * 2), labels)
    if g is None or not _simple(g.adjacency, len(ends)):
        # the walk reads input labels, so its errors name them; a header
        # is the first significant line
        ids = _read(text)[1]
        i, fault = _first_fault(labels[-1] + 1 if labels else n, zip(ids[0::2], ids[1::2]))
        if isinstance(fault, BadVertexError):
            fault = f"vertex id {max(ids[2 * i], ids[2 * i + 1])} >= declared count {n}"
        lines = enumerate((line for chunk in _chunks(text) for line in chunk.splitlines()), 1)
        significant = (no for no, line in lines if line.strip()[:1] not in ("", "#"))
        raise ParseError(next(islice(significant, i + (header is not None), None)), str(fault))
    return g


def _chunks(text):
    """text in chunks of whole lines: its first line alone, where a
    `vertices N` header stands, then about _CHUNK characters each."""
    pos, end, size = 0, len(text), 0
    while pos < end:
        stop = text.find("\n", pos + size) + 1 or end
        yield text[pos:stop]
        pos, size = stop, _CHUNK


def _read(text):
    """The header's N (None without one) and the ids of the edge lines,
    two to a line in order: one int64 array, or a list once an id is
    2**63 or more.  A chunk whose digits leave the skeleton of
    serialize_edge_list's layout is split in one step, any other read
    line by line.  Raises ParseError for the first bad line."""
    header = None
    ids = array("q")
    extend = ids.fromlist
    line_no = 0
    for chunk in _chunks(text):
        tokens = chunk.split()
        values = None
        # less its digits the layout leaves " \n" per line, the last "\n"
        # only where the chunk ends in one: then its 2k runs fill every gap
        k = len(tokens) // 2
        skeleton = b" \n" * k if chunk[-1] == "\n" else (b" \n" * k)[:-1]
        if (2 * k == len(tokens) and chunk.isascii()
                and chunk.encode().translate(None, b"0123456789") == skeleton):
            try:
                values = list(map(int, tokens))
                line_no += k
            except ValueError:  # beyond the digit limit: the lines below name the line
                pass
        if values is None:
            values = []
            for line in chunk.splitlines():
                line_no += 1
                parts = line.split()
                if not parts or parts[0][0] == "#":
                    continue
                # the header can only be the first significant line
                if parts[0] == "vertices" and header is None and not (ids or values):
                    if len(parts) != 2:
                        raise ParseError(line_no, "malformed header, expected 'vertices <N>'")
                    try:
                        header = int(parts[1])
                    except ValueError:
                        raise ParseError(line_no, f"bad vertex count {parts[1]!r}") from None
                    if header < 0:
                        raise ParseError(line_no, "vertex count must be non-negative")
                    continue
                if len(parts) != 2:
                    raise ParseError(line_no, f"expected two vertex ids, got {line.strip()!r}")
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError(line_no, f"non-integer vertex id in {line.strip()!r}") from None
                if u < 0 or v < 0:
                    raise ParseError(line_no, "vertex ids must be non-negative")
                values += u, v
        try:
            extend(values)
        except OverflowError:  # an id of 2**63 or more: the ids go on in a list
            ids = ids.tolist() + values
            extend = ids.extend
        del tokens, values  # before the next chunk is split
    return header, ids


def serialize_edge_list(g):
    """Canonical text form: header line, then sorted edges."""
    lines = [f"vertices {g.vertex_count}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
