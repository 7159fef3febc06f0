"""Shared brute-force helpers and reference implementations for the
test suite.

The cycle helpers are deliberately independent of the library's own
algorithms: bitmask DFS over simple paths, used as the ground truth the
structural decision procedure is checked against.  The block helpers at
the end are the library's earlier, simpler versions, kept as references
for the faster ones.
"""

import random
from collections import defaultdict, deque

from equicycle import recognition
from equicycle import (
    BadVertexError,
    Block,
    BlockDecomposition,
    BookShape,
    BudgetExceededError,
    CycleReport,
    CycleShape,
    DuplicateEdgeError,
    Graph,
    OtherShape,
    OverBudgetError,
    ParseError,
    SearchBudget,
    SelfLoopError,
    build,
    cycle_spectrum,
    decompose,
)


def adjacency_masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def brute_cycle_lengths(n, adj, cap=None):
    """All simple cycle lengths by DFS over paths rooted at their least
    vertex.  Stops early once `cap` distinct lengths are found."""
    lengths = set()
    for root in range(n):
        stack = [(root, 1 << root, 1)]
        while stack:
            v, used, depth = stack.pop()
            m = adj[v]
            while m:
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                if w == root:
                    if depth >= 3:
                        lengths.add(depth)
                        if cap is not None and len(lengths) >= cap:
                            return lengths
                elif w > root and not used >> w & 1:
                    stack.append((w, used | 1 << w, depth + 1))
    return lengths


def graph_cycle_lengths(g, cap=None):
    return brute_cycle_lengths(
        g.vertex_count, adjacency_masks(g.vertex_count, g.edges), cap
    )


def bound_search(n, visit=None, pruned=None):
    """Max edge count per cycle length r over all n-vertex graphs,
    connected or not, whose cycles share one length, by a DFS over edge
    sets in sorted order.  Enumerating all edge sets is out of reach for
    n = 8, but "has two cycle lengths" is monotone under edge addition,
    so the DFS prunes as soon as a second length appears and still
    visits every graph with at most one cycle length: a full
    enumeration of that region, not a sample.  visit(edges, r), if
    given, is called on each, r being its cycle length or 0 when it is
    acyclic, and pruned(edges, e) on each extension by an edge e that
    adds a second length; edges is the search's own list, valid during
    the call."""
    edge_pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ne = len(edge_pool)
    adj = [0] * n
    edges = []
    best = {}

    def lengths_with_edge(u, v, current):
        """Cycle lengths closed by adding edge (u, v); False if they
        break the single-length invariant."""
        found = current
        stack = [(u, 1 << u, 0)]
        while stack:
            x, used, d = stack.pop()
            m = adj[x]
            while m:
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                if w == v:
                    cl = d + 2
                    if cl >= 3:
                        if found and cl != found:
                            return False
                        found = cl
                elif not used >> w & 1:
                    stack.append((w, used | 1 << w, d + 1))
        return found

    def grow(start, current):
        if current and len(edges) > best.get(current, 0):
            best[current] = len(edges)
        if visit is not None:
            visit(edges, current)
        for i in range(start, ne):
            u, v = edge_pool[i]
            nxt = lengths_with_edge(u, v, current)
            if nxt is False:
                if pruned is not None:
                    pruned(edges, edge_pool[i])
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append(edge_pool[i])
            grow(i + 1, nxt)
            edges.pop()
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u

    grow(0, 0)
    return best


def edge_on_some_cycle(g, e):
    """Membership test used to cross-check bridge detection."""
    u, v = e
    adj = adjacency_masks(g.vertex_count, [p for p in g.edges if p != e])
    # e lies on a cycle iff its endpoints stay connected without it
    stack = [u]
    seen = 1 << u
    while stack:
        x = stack.pop()
        m = adj[x]
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            if w == v:
                return True
            if not seen >> w & 1:
                seen |= 1 << w
                stack.append(w)
    return False


def connected_components(g):
    """Partition vertices into components, each a sorted list, ordered
    by least contained vertex: a BFS, independent of the library's
    depth-first component count."""
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


def is_simple_cycle(g, seq):
    """Validate a witness: distinct vertices, consecutive adjacency,
    closing edge present."""
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    edges = set(g.edges)
    ring = list(seq) + [seq[0]]
    for a, b in zip(ring, ring[1:]):
        if ((a, b) if a < b else (b, a)) not in edges:
            return False
    return True


def based_at(g, b):
    """g with vertices 0 and b swapped: a wedge bases it at b, and a
    depth-first search from vertex 0 starts there."""
    swap = {0: b, b: 0}
    return Graph(g.vertex_count, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges])


def subdivide(g, e, t):
    """g with its edge e, as (u, v) with u < v, replaced by a path of
    t + 1 edges through t fresh vertices n..n+t-1, made by build."""
    u, v = e
    n = g.vertex_count
    chain = [u, *range(n, n + t), v]
    return build(n + t, [p for p in g.edges if p != e] + list(zip(chain, chain[1:])))


def block_graph(block):
    """A Block as a graph of its own, made by build: its vertices
    relabelled 0..k-1 in order."""
    index = {v: i for i, v in enumerate(block.vertices)}
    return build(len(index), [(index[u], index[v]) for u, v in block.edges])


def random_connected_edges(rng, n, extra):
    """Random spanning tree plus `extra` additional edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((u, v) if u < v else (v, u))
    pool = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return sorted(edges)


def blockwise_spectrum_check(g, budget=None):
    """Whole-graph cycle spectrum equals the union of the per-block
    spectra."""
    whole = set(cycle_spectrum(g, budget).lengths)
    union = set()
    for block in decompose(g).cycle_blocks:
        union.update(cycle_spectrum(block_graph(block), budget).lengths)
    return whole == union


def circumference(g, budget=None):
    """Length of the longest cycle, or None if acyclic."""
    return cycle_spectrum(g, budget).circumference


def reference_cycle_spectrum(g, budget=None):
    """The library's earlier cycle_spectrum, one loop over all roots:
    same report, witness order, budget checks and guard trip, kept as
    the reference for cycle_spectrum's per-root cycle generator."""
    if budget is None:
        budget = SearchBudget()
    budget.validate()
    n = g.vertex_count
    if n > budget.max_vertices:
        raise OverBudgetError(n, budget.max_vertices)
    adj = g.adjacency
    max_states = budget.max_visited_states
    states = 0
    witnesses = {}

    for root in range(n):
        # DFS over simple paths from root using only vertices > root
        path = [root]
        on_path = {root}
        stack = [iter(adj[root])]
        while stack:
            it = stack[-1]
            advanced = False
            for y in it:
                if y == root:
                    if len(path) >= 3 and path[1] < path[-1]:
                        w = tuple(path)
                        k = len(w)
                        if k not in witnesses or w < witnesses[k]:
                            witnesses[k] = w
                    continue
                if y < root or y in on_path:
                    continue
                states += 1
                if states > max_states:
                    raise BudgetExceededError(states)
                path.append(y)
                on_path.add(y)
                stack.append(iter(adj[y]))
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())

    lengths = tuple(sorted(witnesses))
    return CycleReport(
        girth=lengths[0] if lengths else None,
        circumference=lengths[-1] if lengths else None,
        lengths=lengths,
        witnesses=witnesses,
    )


def _reference_hub_chains(block, adj, a, b):
    chains = []
    for w in adj[a]:
        chain = [a, w]
        prev, cur = a, w
        while len(adj[cur]) == 2:
            x, y = adj[cur]
            nxt = y if x == prev else x
            chain.append(nxt)
            prev, cur = cur, nxt
            if len(chain) > len(block.vertices) + 1:
                return None
        if cur != b:
            return None
        chains.append(chain)
    return chains


def block_adjacency(block):
    """Vertex -> neighbour list of a Block, each ascending if the edges
    are sorted (u, v) pairs with u < v, as decompose gives them."""
    adj = defaultdict(list)
    for u, v in block.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def reference_classify(block):
    """Adjacency-based block classifier: reads every vertex degree, then
    walks the hub-to-hub chains.  Same shapes, reasons and chains as
    recognition._classify."""
    adj = block_adjacency(block)
    m = len(block.vertices)
    degs = [len(adj[v]) for v in block.vertices]
    if all(d == 2 for d in degs):
        return CycleShape(m)
    hubs = [v for v in block.vertices if len(adj[v]) > 2]
    if len(hubs) != 2:
        return OtherShape("degree-profile")
    a, b = hubs
    if len(adj[a]) != len(adj[b]) or any(d not in (2, len(adj[a])) for d in degs):
        return OtherShape("degree-profile")
    chains = _reference_hub_chains(block, adj, a, b)
    if chains is None:
        return OtherShape("count-mismatch")
    lens = [len(c) - 1 for c in chains]
    if sum(k - 1 for k in lens) + 2 != m:
        return OtherShape("count-mismatch")
    if len(set(lens)) > 1:
        if 1 in lens:
            return OtherShape("endpoints-adjacent-structure", chains)
        return OtherShape("unequal-path-lengths", chains)
    if lens[0] < 2:
        return OtherShape("endpoints-adjacent-structure")
    return BookShape(lens[0], len(adj[a]) - 1)


def _hopcroft_tarjan(vertex_count, adjacency):
    """Iterative Hopcroft-Tarjan with low points.  Returns (each
    biconnected component as (list of its vertices, top last, edge
    count) in closing order; number of connected components)."""
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


def reference_blocks(g):
    """The library's earlier decompose, by Hopcroft-Tarjan with low
    points, a vertex stack and an edge count: the same BlockDecomposition,
    kept as the reference for the chain decomposition's blocks, bridges,
    cut vertices and block order (blocks that share their least vertex
    in the order Hopcroft-Tarjan closes them)."""
    adj = g.adjacency
    comps, component_count = _hopcroft_tarjan(g.vertex_count, adj)
    bridges = []
    blocks = []
    seen, cuts = set(), set()
    for vertices, m in comps:
        cuts.update(seen.intersection(vertices))
        seen.update(vertices)
        if m == 1:
            bridges.append(tuple(sorted(vertices)))
            continue
        inside = set(vertices)
        edges = sorted((y, z) for y in inside for z in adj[y] if y < z and z in inside)
        blocks.append(Block(tuple(sorted(vertices)), tuple(edges)))
    blocks.sort(key=lambda b: b.vertices[0])
    return BlockDecomposition(tuple(sorted(bridges)), tuple(sorted(cuts)), tuple(blocks),
                              component_count)


def ear_decomposition_edges(parent, chains):
    """The sorted edges of a block's chains (a _cycle_blocks row's flat
    records, walked along the depth-first parent list), after checking
    that they are an ear decomposition: a cycle, then paths whose ends,
    and only those, lie on earlier chains, each of its recorded
    length."""
    seen = set()
    edges = []
    for q in range(0, len(chains), 4):
        path = recognition._chain(parent, *chains[q:q + 3])
        assert len(path) - 1 == chains[q + 3]
        inner = path[:-1] if q == 0 else path[1:-1]
        assert len(set(inner)) == len(inner) and seen.isdisjoint(inner)
        if q == 0:
            assert path[0] == path[-1] and len(inner) >= 3
        else:
            assert path[0] != path[-1] and seen.issuperset((path[0], path[-1]))
        seen.update(path)
        edges += [(u, v) if u < v else (v, u) for u, v in zip(path, path[1:])]
    return tuple(sorted(edges))


def reference_build(vertex_count, edge_pairs, labels=None):
    """The library's earlier build, one seen-set loop over the pairs:
    same graph and first error, kept as the reference for build's one
    rule and first-fault walk."""
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


def reference_parse_edge_list(text):
    """The library's earlier parse_edge_list, one loop over the lines:
    same graph, labels and first-error message, kept as the reference
    for the bulk reader."""
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
    for line_no, a, b in pairs:
        u, v = a, b
        if remap is not None:
            u, v = remap[u], remap[v]
        elif u >= n or v >= n:
            raise ParseError(line_no, f"vertex id {max(u, v)} >= declared count {n}")
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {a}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(line_no, f"duplicate edge ({a}, {b})")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges, labels)
