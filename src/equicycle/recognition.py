"""Decide whether every cycle of a graph has the same length.

Each cycle block must be a single cycle C_r, or (for even r) a
generalized book B(r/2, r, p): p+1 internally disjoint paths of equal
length r/2 between two hub vertices.  Any other block shape, or two
blocks implying different r, forces two distinct cycle lengths.

The decision is one linear pass: Hopcroft-Tarjan closes each block as
its vertices and edge count, and the block is classified from those
and the graph's adjacency alone, with hub-to-hub chains walked only in
a two-hub block.  This pass is the only way any caller gets block
shapes: decide, extract_witnesses, classify_block (on a copy of its
block) and bounds.certify_graph all read them from it, so every block
carries the shape this one classifier gave it, which decides where its
witnesses come from.

Every rejection is given two witness cycles of distinct lengths, in
linear time and with no search budget.  They come from the first
misshapen block: from its hub-to-hub chains when it has two hubs, and
otherwise from an ear search (a cycle grown ear by ear into an
equal-path book until an ear breaks it).  When every block is
well-shaped, they come from two blocks of different r.
"""

from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from .decomposition import cycle_block_degrees, top_neighbours
from .errors import NotABlockError, NotRejectedError


@dataclass(frozen=True)
class CycleShape:
    """Block is the plain cycle C_r."""

    r: int


@dataclass(frozen=True)
class BookShape:
    """Block is B(k, 2k, p): p+1 disjoint length-k paths between two
    hubs; every cycle in it has length 2k."""

    k: int
    p: int

    @property
    def r(self):
        return 2 * self.k


@dataclass(frozen=True)
class OtherShape:
    """Block matches neither accepted shape; reason is one of
    degree-profile, unequal-path-lengths, endpoints-adjacent-structure.
    For the two reasons that mean unequal hub-to-hub chains, chains
    holds those chains for the witness path."""

    reason: str
    chains: list | None = field(default=None, compare=False, repr=False)

    r = None


_DEGREE_PROFILE = OtherShape("degree-profile")


@dataclass(frozen=True)
class AllCyclesEqual:
    r: int
    shapes: tuple
    notes: tuple = ()


@dataclass(frozen=True)
class DistinctLengths:
    """witness_status is 'exact' when two concrete cycles of distinct
    lengths are attached, which decide(g, witnesses=True) always does,
    and 'decision-only' when witnesses were not asked for."""

    witness_a: tuple | None = None
    witness_b: tuple | None = None
    witness_status: str = "decision-only"
    shapes: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class Acyclic:
    notes: tuple = ()


def _hub_chains(adj, inside, a, vertices=None):
    """Each maximal degree-2 chain leaving vertex a of a block, as the
    vertex sequence a..endpoint (in a cycle, a..a), in the order of a's
    neighbour list.  inside maps the block's vertices to their block
    degrees, and adj is the graph's adjacency.  vertices, if given,
    lists the block's vertices with its Hopcroft-Tarjan top last, whose
    neighbours are then read off the others' lists.  In a two-hub block
    every chain ends at the other hub: a chain back to a would make a a
    cut vertex, and a degree-2 vertex on no chain would lie on a cycle
    of degree-2 vertices alone."""
    top = vertices[-1] if vertices else None
    for w in top_neighbours(adj, vertices) if a == top else adj[a]:
        if w in inside:
            chain = [a, w]
            prev, cur = a, w
            while cur != a and inside[cur] == 2:
                # a vertex with two neighbours in all has both in the block
                x, y = (adj[cur] if len(adj[cur]) == 2 else top_neighbours(adj, vertices)
                        if cur == top else [z for z in adj[cur] if z in inside])
                prev, cur = cur, y if x == prev else x
                chain.append(cur)
            yield chain


def _classify(adj, degrees, vertices):
    """Shape of a cycle block that is not a cycle, from its vertex ->
    block degree map; its chains are walked, by _hub_chains over adj and
    vertices (top last), only when it has two hubs."""
    hubs = list(islice((v for v, d in degrees.items() if d > 2), 3))
    # two hubs have equal degree: a chain of degree-2 vertices from a hub
    # back to itself would make that hub a cut vertex
    if len(hubs) != 2:
        return _DEGREE_PROFILE
    chains = list(_hub_chains(adj, degrees, min(hubs), vertices))
    lens = [len(c) - 1 for c in chains]
    if len(set(lens)) > 1:
        if 1 in lens:
            return OtherShape("endpoints-adjacent-structure", chains)
        return OtherShape("unequal-path-lengths", chains)
    k = lens[0]
    # equal lengths with k = 1 would need parallel edges; unreachable in
    # a simple graph, kept as a guard
    if k < 2:
        return OtherShape("endpoints-adjacent-structure")
    return BookShape(k, len(chains) - 1)


def classify_block(block):
    """Classify one cycle block as CycleShape, BookShape or OtherShape.

    The block is copied to a graph of its own and classified there by
    the Hopcroft-Tarjan pass that decide makes; an OtherShape's chains
    are mapped back to the block's vertex ids.  Raises NotABlockError
    when the argument is not one 2-connected block: one component whose
    one cycle block holds every vertex, with every edge end among them;
    a loop or repeated edge raises build's error (see Block.to_graph).
    """
    h, mapping = block.to_graph()
    component_count, rows = _cycle_blocks(h)
    if component_count != 1 or len(rows) != 1 or len(rows[0][1]) != h.vertex_count:
        raise NotABlockError("not a 2-connected block of at least 3 vertices")
    shape = rows[0][2]
    if isinstance(shape, OtherShape) and shape.chains:
        return OtherShape(shape.reason, [[mapping[v] for v in c] for c in shape.chains])
    return shape


def _cycle_blocks(g):
    """The component count, and each cycle block as a row (least vertex,
    members, shape), ordered by least vertex, from one Hopcroft-Tarjan
    pass.  members, the block's vertex -> degree map or, for a cycle,
    its vertices, is what the witness path reads of it."""
    component_count, closed = cycle_block_degrees(g)
    blocks = []
    for vertices, m, degrees in closed:
        shape = CycleShape(m) if degrees is None else _classify(g.adjacency, degrees, vertices)
        blocks.append((min(vertices), degrees or vertices, shape))
    # stable: blocks that share their least vertex, a cut vertex, keep
    # the order in which the DFS closed them
    blocks.sort(key=itemgetter(0))
    return component_count, blocks


def _chain_pair_cycle(c1, c2):
    """Simple cycle from two hub-to-hub chains (shared endpoints only)."""
    return tuple(c1[:-1] + list(reversed(c2[1:])))


def _block_cycle(adj, least, members, shape):
    """A cycle of a well-shaped block, from its _cycle_blocks row: in a
    cycle, one way round from its least vertex, towards that vertex's
    smaller neighbour; in a book, its first two pages from the lesser
    hub.  Only two blocks are walked, so a cut vertex's whole list in
    adj may be read."""
    if isinstance(shape, CycleShape):
        return tuple(next(_hub_chains(adj, dict.fromkeys(members, 2), least))[:-1])
    chains = _hub_chains(adj, members, min(v for v, d in members.items() if d > 2))
    return _chain_pair_cycle(next(chains), next(chains))


def _theta_witness_pair(chains):
    """Two cycles of distinct lengths from the hub-to-hub chains (three
    or more, not all of one length) of a two-hub block."""
    shortest, third, *_, longest = sorted(chains, key=len)
    return _chain_pair_cycle(shortest, third), _chain_pair_cycle(longest, third)


def _bfs_cycle(adj, inside, s):
    """The cycle closed by the first non-tree edge (x, y) that a BFS of
    the block from s meets (a block with a cycle has one): x up to the
    lowest common ancestor of x and y in the BFS tree, then down to y."""
    parent = {s: s}
    queue = [s]
    for x in queue:
        for y in adj[x]:
            if y in parent:
                if y != parent[x]:
                    up = [x]
                    while up[-1] != s:
                        up.append(parent[up[-1]])
                    index = {v: i for i, v in enumerate(up)}
                    down = [y]
                    while down[-1] not in index:
                        down.append(parent[down[-1]])
                    return up[:index[down[-1]]] + down[::-1]
            elif y in inside:
                parent[y] = x
                queue.append(y)


def _ear(adj, inside, on, u, x):
    """The ear of the subgraph H (vertex set `on`) that leaves u through
    its neighbour x, as the path u, x, ..., w to a vertex w != u of H:
    [u, x] when x is on H (a chord), and otherwise the BFS tree path
    from x through vertices off H to the first vertex met that has a
    neighbour w on H other than u.  2-connectivity guarantees one."""
    if x in on:
        return [u, x]
    parent = {x: u}
    queue = [x]
    for y in queue:
        for z in adj[y]:
            if z in on:
                if z != u:
                    ear = [z, y]
                    while ear[-1] != u:
                        ear.append(parent[ear[-1]])
                    return ear[::-1]
            elif z not in parent and z in inside:
                parent[z] = y
                queue.append(z)


def _shorter_first(cycles):
    """The first of cycles and the first one of another length, shorter
    first; None if all have one length."""
    a = cycles[0]
    for b in cycles[1:]:
        if len(b) != len(a):
            return (tuple(a), tuple(b)) if len(a) < len(b) else (tuple(b), tuple(a))
    return None


def _book_ear_pair(pages, at, ear):
    """Two cycles of distinct lengths in a book and an ear that is not a
    further page.  pages are the book's equal a..b paths, at gives each
    book vertex's (page, index from a), and the ear runs from u to w.
    A hub lies on every page, so it takes the page of the other end."""
    k = len(pages[0]) - 1
    (i, s), (j, t) = at[ear[0]], at[ear[-1]]
    if s in (0, k):
        i = j
    elif t in (0, k):
        j = i
    if s > t:
        ear = ear[::-1]
        i, s, j, t = j, t, i, s
    back = ear[-2:0:-1]  # the ear's inner vertices, from w back to u
    p = pages[i]
    if i == j:
        # the ear closes one cycle with the page segment between its ends
        # and one around the far side through another page; with both
        # ends at the hubs those two tie, and the book's own cycle differs
        other = pages[1 if i == 0 else 0]
        return _shorter_first([p[s:t + 1] + back,
                               p[s::-1] + other[1:] + p[k - 1:t - 1:-1] + back,
                               pages[0] + pages[1][-2:0:-1]])
    # ends on two pages, s and t from a: the cycles of lengths q+s+t,
    # q+2k-s-t and q+2k+s-t; the first and the third always differ
    third = pages[next(n for n in range(3) if n != i and n != j)]
    pj = pages[j]
    return _shorter_first([p[s::-1] + pj[1:t + 1] + back,
                           p[s:] + pj[k - 1:t - 1:-1] + back,
                           p[s::-1] + third[1:] + pj[k - 1:t - 1:-1] + back])


def _ear_witness_pair(adj, inside, s):
    """Two cycles of distinct lengths in the block with vertex set
    inside and least vertex s, or None if all its cycles have one
    length.  A cycle C from a BFS at s and its first ear give three
    paths between two vertices of C; unequal lengths give the pair.
    Equal ones are the first pages of a book with those two vertices as
    hubs, which grows by hub-to-hub ears of page length until an ear
    breaks it.  A page's inner vertex with a neighbour off its page
    starts a breaking ear, so inner vertices are checked as their pages
    join, and the remaining ears all leave the first hub."""
    c = _bfs_cycle(adj, inside, s)
    n = len(c)
    at = {v: i for i, v in enumerate(c)}
    for i, u in enumerate(c):
        for x in adj[u]:
            if x != c[i - 1] and x != c[(i + 1) % n] and x in inside:
                ear = _ear(adj, inside, at, u, x)
                d = (at[ear[-1]] - i) % n
                pages = [[c[(i + m) % n] for m in range(d + 1)],
                         [c[(i - m) % n] for m in range(n - d + 1)], ear]
                if len({len(p) for p in pages}) > 1:
                    return _theta_witness_pair(pages)
                return _grow_book(adj, inside, pages)
    return None  # the block is the cycle C


def _grow_book(adj, inside, pages):
    """_ear_witness_pair's book phase, from three equal a..b pages."""
    a, b = pages[0][0], pages[0][-1]
    k = len(pages[0]) - 1
    at = {a: (0, 0), b: (0, k)}
    for i, page in enumerate(pages):
        for t in range(1, k):
            at[page[t]] = (i, t)

    def breaking_ear(page):
        """An ear from an inner vertex of page, or None."""
        for t in range(1, k):
            for x in adj[page[t]]:
                if x != page[t - 1] and x != page[t + 1] and x in inside:
                    return _ear(adj, inside, at, page[t], x)
        return None

    for page in pages:
        ear = breaking_ear(page)
        if ear is not None:
            return _book_ear_pair(pages, at, ear)
    for x in adj[a]:
        if x in at:
            if at[x][1] == 1:
                continue  # the first edge of a page
        elif x not in inside:
            continue
        ear = _ear(adj, inside, at, a, x)
        if ear[-1] == b and len(ear) == k + 1:
            for t in range(1, k):
                at[ear[t]] = (len(pages), t)
            pages.append(ear)
            ear = breaking_ear(ear)
        if ear is not None:
            return _book_ear_pair(pages, at, ear)
    return None  # the block is the book


def _common_r(shapes):
    """The cycle length r that every shape has, or None."""
    rs = {s.r for s in shapes}
    return rs.pop() if len(rs) == 1 else None


def _witness_pair(adj, blocks):
    """Two simple cycles of distinct lengths, shorter first, from the
    _cycle_blocks rows of a rejected graph."""
    # a single misshapen block always contains both lengths
    for least, members, shape in blocks:
        if shape is _DEGREE_PROFILE:
            return _ear_witness_pair(adj, members, least)
        if shape.r is None:
            return _theta_witness_pair(shape.chains)
    # otherwise two well-shaped blocks disagree on r: the first block of
    # the least r and the first of the greatest give one cycle each
    rs = [shape.r for _, _, shape in blocks]
    return tuple(_block_cycle(adj, *blocks[rs.index(r)]) for r in (min(rs), max(rs)))


def decide(g, witnesses=False, decomposition=None):
    """The main decision procedure.

    Returns AllCyclesEqual(r, ...) iff every cycle block is C_r or
    B(r/2, r, p) for one common r, Acyclic when there are no cycle
    blocks, and DistinctLengths otherwise.  The decision never
    enumerates cycles: one Hopcroft-Tarjan pass closes each block as
    its vertices and edge count, and each block is classified from
    those and g.adjacency, by its counts and degree profile, walking
    hub-to-hub chains only in a two-hub block.
    decomposition is ignored: the blocks are always this pass's own.  It
    is still accepted because the benchmark harness's traced pipeline
    (bench/measure.py) passes decompose(g); it goes with that caller.

    Pass witnesses=True to also attach a pair of cycles of distinct
    lengths, shorter first, to every rejection (status 'exact'; without
    witnesses the status is 'decision-only').  The pair costs linear
    time and no budget: it comes from the first misshapen block, by its
    chains when it has two hubs and by an ear search otherwise, or from
    two blocks of different r.
    """
    component_count, blocks = _cycle_blocks(g)
    notes = ()
    if component_count > 1:
        notes = ("input is disconnected; decided over all components",)
    if not blocks:
        return Acyclic(notes)
    shapes = tuple([shape for _, _, shape in blocks])
    r = _common_r(shapes)
    if r is not None:
        return AllCyclesEqual(r, shapes, notes)
    if not witnesses:
        return DistinctLengths(None, None, "decision-only", shapes, notes)
    return DistinctLengths(*_witness_pair(g.adjacency, blocks), "exact", shapes, notes)


def extract_witnesses(g, shapes=None, decomposition=None):
    """Two simple cycles of distinct lengths for a rejected graph.

    Returns ((cycle_a, cycle_b), 'exact'), the shorter cycle first, the
    same pair as decide(g, witnesses=True).  Raises NotRejectedError
    when the graph is accepted or acyclic.  shapes and decomposition
    are ignored: the blocks are always classified here, by decide's one
    pass.  They are still accepted because the benchmark harness's
    traced pipeline (bench/measure.py) passes decide(g).shapes and
    decompose(g); they go with that caller.
    """
    _, blocks = _cycle_blocks(g)
    if not blocks or _common_r([shape for _, _, shape in blocks]) is not None:
        raise NotRejectedError("graph does not contain two distinct cycle lengths")
    return _witness_pair(g.adjacency, blocks), "exact"
