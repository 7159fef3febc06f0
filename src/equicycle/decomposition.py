"""Bridges, cut vertices, and cycle blocks.

A cycle block is a biconnected component with at least 3 vertices,
i.e. a block of the graph left after deleting all bridges and then all
isolated vertices.  Disconnected inputs are handled per component and
the results concatenated.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from .graph import Graph


@dataclass(frozen=True)
class Block:
    """One cycle block as an induced-on-its-edges subgraph, in the
    parent graph's vertex ids."""

    vertices: tuple
    edges: tuple

    @classmethod
    def of(cls, edges):
        """The block of an edge slice in any order: sorted vertices and
        sorted edges."""
        return cls(tuple(sorted(set(chain.from_iterable(edges)))), tuple(sorted(edges)))

    def adjacency(self):
        """Vertex -> neighbour list, each list ascending."""
        return edge_adjacency(self.edges)

    def to_graph(self):
        """Dense relabeling of the block; returns (graph, dense->parent
        id mapping)."""
        mapping = list(self.vertices)
        index = {v: i for i, v in enumerate(mapping)}
        return Graph(len(mapping), [(index[u], index[v]) for u, v in self.edges]), mapping


def edge_adjacency(edges):
    """Vertex -> neighbour list of sorted (u, v) pairs with u < v.  Each
    list comes out ascending: a vertex meets its smaller neighbours in
    pairs sorted before those that meet its larger ones."""
    adj = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


@dataclass(frozen=True)
class BlockDecomposition:
    bridges: tuple
    cut_vertices: tuple
    cycle_blocks: tuple
    component_count: int  # connected components, isolated vertices included


def _biconnected_components(vertex_count, adjacency):
    """Iterative Hopcroft-Tarjan.  Returns (edge lists per component,
    each edge as (u, v) with u < v; articulation points; number of
    connected components)."""
    disc = [0] * vertex_count  # 0 = unvisited, else 1-based time
    low = [0] * vertex_count
    cuts = set()
    comps = []
    timer = 1
    roots = 0  # one DFS per connected component
    for root in range(vertex_count):
        if disc[root]:
            continue
        roots += 1
        disc[root] = low[root] = timer
        timer += 1
        # a frame's mark is the edge-stack height below its tree edge
        frames = [(root, -1, iter(adjacency[root]), 0)]
        estack = []
        root_children = 0
        while frames:
            v, parent, it, mark = frames[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if disc[w] == 0:
                    frames.append((w, v, iter(adjacency[w]), len(estack)))
                    estack.append((v, w) if v < w else (w, v))
                    disc[w] = low[w] = timer
                    timer += 1
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w) if v < w else (w, v))
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
                    # the tree edge (u, v) and everything pushed after it
                    comps.append(estack[mark:])
                    del estack[mark:]
                    if u == root:
                        root_children += 1
                    else:
                        cuts.add(u)
        if root_children > 1:
            cuts.add(root)
    return comps, cuts, roots


def decompose(g):
    """Full decomposition: bridges, cut vertices, and cycle blocks
    ordered by least contained vertex."""
    comps, cuts, component_count = _biconnected_components(g.vertex_count, g.adjacency)
    bridges_ = []
    blocks = []
    for comp in comps:
        if len(comp) == 1:
            bridges_.append(comp[0])
        else:
            blocks.append(Block.of(comp))
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
