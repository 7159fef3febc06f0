"""Bridges, cut vertices, and cycle blocks.

A cycle block is a biconnected component with at least 3 vertices,
i.e. a block of the graph left after deleting all bridges and then all
isolated vertices.  Disconnected inputs are handled per component and
the results concatenated.

One pass finds them all: a depth-first search, then Schmidt's chain
decomposition (IPL 113(7), 2013).  The search's scan, the only one of
the neighbour lists, collects each back edge at its upper end.  With
those ends in preorder, each back edge starts a chain that runs down
it and up the tree to the first vertex already on a chain.  A chain
that closes at its own start opens a block; any other joins the block
of the tree edge above its end; a tree edge on no chain is a bridge.
A block's chains, in order, are an ear decomposition of it: a cycle,
then paths between vertices already on it.  No block's edge list is
built on the way to a verdict, and each tree edge is walked once at most.
"""

from typing import NamedTuple


class Block(NamedTuple):
    """One cycle block as an induced-on-its-edges subgraph, in the
    parent graph's vertex ids."""

    vertices: tuple
    edges: tuple


class BlockDecomposition(NamedTuple):
    bridges: tuple
    cut_vertices: tuple
    cycle_blocks: tuple
    component_count: int  # connected components, isolated vertices included


def chain_decomposition(g):
    """The one pass over g: (component count, parent, chain, block,
    rows).  parent[v] is v's parent in the depth-first forest, a root
    being its own; chain[v] is the chain that walked the tree edge above
    v, or -1 for a root or a bridge's lower end; block[c] is chain c's
    block.  rows lists each cycle block as (least vertex u, below, kid,
    block id, chains), where below tells whether u lies below the
    block's top and kid is the top's child in the block.  Sorting them
    puts blocks that share u in the order Hopcroft-Tarjan closes them,
    the order their kids finish: those with top u first, their kids in
    u's sorted neighbour list, the order the search visits them, then
    the one that holds u's parent, whose kid finishes after all of them.
    chains is flat, four entries per chain: start, second vertex, end
    (the start again for the first, a cycle) and length; the second
    vertex's walk up the tree to the end gives the rest.  A neighbour w
    already finished in v's scan was reached through an earlier child,
    so v keeps w as a back edge's lower end, in its sorted-list order;
    the chain walk reads only those."""
    adj = g.adjacency
    n = g.vertex_count
    parent = [-1] * n
    done = bytearray(n)  # set once a vertex's neighbour list is scanned through
    down = [()] * n  # each vertex's back edges down, by their lower ends
    order = []  # preorder
    roots = 0
    for root in range(n):
        if parent[root] >= 0:
            continue
        roots += 1
        parent[root] = v = root
        order.append(root)
        it, its = iter(adj[root]), []
        while True:
            for w in it:
                if parent[w] < 0:
                    parent[w] = v
                    order.append(w)
                    its.append(it)
                    v, it = w, iter(adj[w])
                    break
                # a finished neighbour is a descendant reached through an
                # earlier child: (v, w) is a back edge down from v
                if done[w]:
                    if down[v]:
                        down[v].append(w)
                    else:
                        down[v] = [w]
            else:
                done[v] = 1
                if not its:
                    break
                v, it = parent[v], its.pop()
    chain = [-1] * n
    block = []
    blocks, least, kids = [], [], []
    for v in order:
        for w in down[v]:
            c = len(block)
            y, lo, length = w, v, 1
            while y != v and chain[y] < 0:
                chain[y] = c
                if y < lo:
                    lo = y
                kid, y = y, parent[y]
                length += 1
            if y == v:
                b = len(blocks)
                blocks.append([v, w, v, length])
                least.append(lo)
                kids.append(kid)
            else:
                b = block[chain[y]]
                blocks[b] += (v, w, y, length)
                if lo < least[b]:
                    least[b] = lo
            block.append(b)
    rows = [(lo, chains[0] != lo, kid, b, chains)
            for b, (lo, kid, chains) in enumerate(zip(least, kids, blocks))]
    rows.sort()
    return roots, parent, chain, block, rows


def decompose(g):
    """Full decomposition: bridges, cut vertices (those in two or more
    biconnected components, bridges included), and cycle blocks ordered
    by least contained vertex, read off chain_decomposition's labels."""
    adj = g.adjacency
    component_count, parent, chain, block, rows = chain_decomposition(g)
    label = [block[c] if c >= 0 else -1 for c in chain]  # block of the edge above
    inner = [[] for _ in rows]  # each block's vertices below its top, ascending
    pieces = [0] * g.vertex_count  # blocks and bridges each vertex tops
    bridges = []
    for y, p in enumerate(parent):
        if p == y:
            continue
        b = label[y]
        if b < 0:
            bridges.append((p, y) if p < y else (y, p))
            pieces[p] += 1
        else:
            inner[b].append(y)
            if label[p] != b:
                pieces[p] += 1
    blocks = []
    for _, _, _, b, chains in rows:
        top = chains[0]
        vertices = inner[b]
        # an edge to the top is read at its other end: the top's own list
        # runs into every block it tops
        edges = [(y, z) if y < z else (z, y) for y in vertices
                 for z in adj[y] if z == top or (y < z and label[z] == b)]
        edges.sort()
        vertices.append(top)
        vertices.sort()
        blocks.append(Block(tuple(vertices), tuple(edges)))
    return BlockDecomposition(
        bridges=tuple(sorted(bridges)),
        cut_vertices=tuple(y for y, p in enumerate(parent) if pieces[y] + (p != y) > 1),
        cycle_blocks=tuple(blocks),
        component_count=component_count,
    )

