"""Bridges, cut vertices, and cycle blocks.

A cycle block is a biconnected component with at least 3 vertices,
i.e. a block of the graph left after deleting all bridges and then all
isolated vertices.  Disconnected inputs are handled per component and
the results concatenated.

Hopcroft-Tarjan keeps a vertex stack and an edge count, not an edge
stack: a component closes as its vertices, the top (the vertex the DFS
entered it from) last, and its edge count.  A block's degrees and
edges are read from those and the graph's adjacency in time linear over
all blocks: each vertex is below the top of exactly one block, and the
top's neighbours in a block are read off the other vertices' lists.
"""

from dataclasses import dataclass

from .errors import NotABlockError
from .graph import build


@dataclass(frozen=True)
class Block:
    """One cycle block as an induced-on-its-edges subgraph, in the
    parent graph's vertex ids."""

    vertices: tuple
    edges: tuple

    def to_graph(self):
        """Dense relabeling of the block, made by build; returns (graph,
        dense->parent id mapping).  An edge end outside vertices raises
        NotABlockError, a loop or repeated edge build's error (dense ids)."""
        mapping = list(self.vertices)
        index = {v: i for i, v in enumerate(mapping)}
        try:
            pairs = [(index[u], index[v]) for u, v in self.edges]
        except KeyError as exc:
            raise NotABlockError(f"edge end {exc.args[0]} is not a vertex of the block") from None
        return build(len(mapping), pairs), mapping


@dataclass(frozen=True)
class BlockDecomposition:
    bridges: tuple
    cut_vertices: tuple
    cycle_blocks: tuple
    component_count: int  # connected components, isolated vertices included


def _biconnected_components(vertex_count, adjacency):
    """Iterative Hopcroft-Tarjan.  Returns (each biconnected component
    as (list of its vertices, top last, edge count) in closing order;
    number of connected components)."""
    disc = [0] * vertex_count  # 0 = unvisited, else 1-based time
    low = [0] * vertex_count
    comps = []
    timer = 1
    roots = 0  # one DFS per connected component
    vstack = []
    edges = 0  # seen and in no closed component
    for root in range(vertex_count):
        if disc[root]:
            continue
        roots += 1
        disc[root] = low[root] = timer
        timer += 1
        # a frame's marks: vertex-stack height and edge count below its tree edge
        frames = [(root, -1, iter(adjacency[root]), 0, 0)]
        while frames:
            v, parent, it, vmark, emark = frames[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] == 0:
                    frames.append((w, v, iter(adjacency[w]), len(vstack), edges))
                    vstack.append(w)
                    edges += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edges += 1
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if advanced:
                continue
            frames.pop()
            if frames:
                u = frames[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # the tree edge (u, v) and everything seen after it
                    vertices = vstack[vmark:]
                    vertices.append(u)
                    comps.append((vertices, edges - emark))
                    del vstack[vmark:]
                    edges = emark
    return comps, roots


def top_neighbours(adj, vertices):
    """The neighbours, ascending, of the top of the block on vertices,
    a list with the top last.  The top's list in the graph's
    adjacency adj runs into every block it tops, but every other vertex
    has its edges in this block or in blocks closed earlier with it on
    top, so the top's neighbours are read off the others' lists."""
    u = vertices[-1]
    top = [y for y in vertices[:-1] if u in adj[y]]
    top.sort()
    return top


def cycle_block_degrees(g):
    """Hopcroft-Tarjan over g with no edge list: the number of connected
    components, and each cycle block as (vertices, top last; edge count
    m; degrees) in closing order.  A block with m == len(vertices) is a
    cycle, with degrees None; any other's degrees maps each vertex to
    its block degree.  A vertex below the top has each edge in this
    block or in a block closed earlier with it on top, and the top,
    last in degrees too, has the rest of the 2m ends."""
    adj = g.adjacency
    comps, component_count = _biconnected_components(g.vertex_count, adj)
    blocks = []
    given = {}  # a top vertex's edges in the blocks closed so far
    for vertices, m in comps:
        u = vertices[-1]
        if m == 1:  # a bridge
            given[u] = given.get(u, 0) + 1
            continue
        degrees = None
        top = 2  # in a cycle
        if m > len(vertices):
            degrees = {x: len(adj[x]) - given.get(x, 0) for x in vertices}
            top = degrees[u] = 2 * m - (sum(degrees.values()) - degrees[u])
        given[u] = given.get(u, 0) + top
        blocks.append((vertices, m, degrees))
    return component_count, blocks


def decompose(g):
    """Full decomposition: bridges, cut vertices (those in two or more
    biconnected components, bridges included), and cycle blocks ordered
    by least contained vertex."""
    adj = g.adjacency
    comps, component_count = _biconnected_components(g.vertex_count, adj)
    bridges_ = []
    blocks = []
    seen, cuts = set(), set()
    for vertices, m in comps:
        cuts.update(seen.intersection(vertices))
        seen.update(vertices)
        if m == 1:
            bridges_.append(tuple(sorted(vertices)))
            continue
        u, inside = vertices[-1], set(vertices)
        vertices.sort()
        # an edge to the top u is read at its other end; the sort places it
        edges = [(y, z) if y < z else (z, y) for y in vertices if y != u
                 for z in adj[y] if (y < z or z == u) and z in inside]
        edges.sort()
        blocks.append(Block(tuple(vertices), tuple(edges)))
    blocks.sort(key=lambda b: b.vertices[0])
    return BlockDecomposition(
        bridges=tuple(sorted(bridges_)),
        cut_vertices=tuple(sorted(cuts)),
        cycle_blocks=tuple(blocks),
        component_count=component_count,
    )


def bridges(g):
    """Edges contained in no cycle."""
    return decompose(g).bridges
