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
serialize_edge_list's layout to one json.loads, past the line loop.
The ids are mapped once, through one table, into one dense list, in
which every vertex has one int object; the list is freed as the build
reads its last pair.
"""

import json
import sys
from array import array
from itertools import islice

from .errors import (
    BadVertexError,
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    TooSmallError,
)

_CHUNK = 1 << 16  # characters per chunk of the reader, rounded up to whole lines
_COMMAS = str.maketrans(" \n", ",,")  # a bulk chunk as the body of a JSON list


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


def build(vertex_count, edge_pairs):
    """Validate and construct a Graph from explicit edge pairs.

    The pairs must make a simple graph: ends in range(vertex_count), no
    loop, no edge twice in either orientation.  The first bad pair raises
    BadVertexError, SelfLoopError or DuplicateEdgeError; nothing is repaired.
    A negative vertex_count raises TooSmallError.
    """
    if vertex_count < 0:
        raise TooSmallError(f"negative vertex count {vertex_count}")
    pairs = list(edge_pairs)  # walked again when the rule fails
    try:
        g = Graph(vertex_count, pairs)
    except IndexError:  # an end >= vertex_count, or < -vertex_count
        g = None
    # an end in -vertex_count..-1 indexes a list, and is then first in some tuple
    if (g is None or not _simple(g.adjacency, 2 * len(pairs))
            or pairs and min(filter(None, g.adjacency))[0] < 0):
        raise _first_fault(vertex_count, pairs)[1]
    return g


def parse_edge_list(text):
    """Parse the line-oriented edge-list format.

    Lines starting with '#' and blank lines are ignored; lines end where
    str.splitlines ends them.  An optional first significant line
    `vertices N` fixes the vertex count, in which case ids must be < N
    and are used directly.  Without the header, labels are collected
    into one dict, which then maps each to its dense id in sorted order;
    `labels` is None when they are already 0..n-1, or when there are
    none.  The dense id list is held only by the build, so it is freed
    with its last pair.  ParseError names the first bad line; a
    loop, duplicate or id >= N is looked for, by build's rule, once
    every line has been read, and is named by its input labels.
    """
    header, ids = _read(text)
    n, labels = header, None
    if header is None:
        table = dict.fromkeys(ids)  # each label once
        labels = sorted(table)
        n = len(labels)
        table.update(zip(labels, range(n)))  # the one int object of each vertex
        if not labels or labels[-1] == n - 1:
            labels = None  # the ids are already 0..n-1
    elif n > sys.maxsize:  # more vertices than a list can hold
        raise MemoryError
    else:
        table = list(range(n))  # the one int object of each vertex
    try:  # one pointer per id, where the array held 8 bytes
        ends = list(map(table.__getitem__, ids))
    except IndexError:  # an id >= N
        ends = None
    del ids, table  # before the build
    g = None
    if ends is not None:
        count = len(ends)
        ends = zip(*[iter(ends)] * 2)  # the list's last holder, so it is freed with its last pair
        g = Graph(n, ends, labels)
    if g is None or not _simple(g.adjacency, count):
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
    serialize_edge_list's layout is read by one json.loads, its spaces
    and newlines made commas, so no token strings are made; a chunk
    JSON refuses (an id with a leading zero or past the int digit
    limit, an empty id), and any other, is read line by line.  Raises
    ParseError for the first bad line."""
    header = None
    ids = array("q")
    extend = ids.fromlist
    line_no = 0
    for chunk in _chunks(text):
        values = None
        # less its digits the layout leaves " \n" per line, the last "\n"
        # only where the chunk ends in one; the k lines before it are then
        # a JSON list's body once their single spaces and newlines are commas
        body = chunk[:-1] if chunk[-1] == "\n" else chunk
        k = body.count("\n") + 1
        if body.isascii() and body.encode().translate(None, b"0123456789") == (b" \n" * k)[:-1]:
            try:
                values = json.loads(f"[{body.translate(_COMMAS)}]")
                line_no += k
            except ValueError:  # a leading zero, an empty id, past the digit limit
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
        del values  # before the next chunk is read
    return header, ids


def serialize_edge_list(g):
    """Canonical text form: header line, then sorted edges."""
    lines = [f"vertices {g.vertex_count}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
