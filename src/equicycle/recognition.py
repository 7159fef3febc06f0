"""Decide whether every cycle of a graph has the same length.

Each cycle block must be a single cycle C_r, or (for even r) a
generalized book B(r/2, r, p): p+1 internally disjoint paths of equal
length r/2 between two hub vertices.  Any other block shape, or two
blocks implying different r, forces two distinct cycle lengths.

The decision is one linear pass: Hopcroft-Tarjan cuts the edges into
block slices, and each slice is classified from its edge count, vertex
count and degree profile, with hub-to-hub chains walked only in a
two-hub block.  No Block is built on the way.  Explicit witness cycles
are produced on request, from the hub-to-hub chains of a two-hub block,
and otherwise by a budgeted search for the block's shortest and longest
cycle; only the blocks that search walks become Blocks.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .decomposition import Block, _biconnected_components, decompose, edge_adjacency
from .errors import BudgetExceededError, NotABlockError, NotRejectedError
from .oracle import SearchBudget, extreme_cycles


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


@dataclass(frozen=True)
class AllCyclesEqual:
    r: int
    shapes: tuple
    notes: tuple = ()


@dataclass(frozen=True)
class DistinctLengths:
    """witness_status is 'exact' when two concrete cycles of distinct
    lengths are attached, 'decision-only' otherwise."""

    witness_a: tuple | None = None
    witness_b: tuple | None = None
    witness_status: str = "decision-only"
    shapes: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class Acyclic:
    notes: tuple = ()


def _hub_chains(adj, a):
    """Each maximal degree-2 chain leaving hub a, as the vertex sequence
    a..endpoint, in the order of a's neighbour list.  In a two-hub block
    every chain ends at the other hub: a chain back to a would make a a
    cut vertex, and a degree-2 vertex on no chain would lie on a cycle
    of degree-2 vertices alone."""
    chains = []
    for w in adj[a]:
        chain = [a, w]
        prev, cur = a, w
        while len(adj[cur]) == 2:
            x, y = adj[cur]
            nxt = y if x == prev else x
            chain.append(nxt)
            prev, cur = cur, nxt
        chains.append(chain)
    return chains


def _classify(edges, vertex_count):
    """Shape of one cycle block given as its edge list, in any order,
    and its vertex count."""
    # a block is 2-connected, so every degree is at least 2: as many edges
    # as vertices leaves every degree at exactly 2, a single cycle
    if len(edges) == vertex_count:
        return CycleShape(vertex_count)
    hubs = [v for v, d in Counter(chain.from_iterable(edges)).items() if d > 2]
    # two hubs have equal degree: a chain of degree-2 vertices from a hub
    # back to itself would make that hub a cut vertex
    if len(hubs) != 2:
        return OtherShape("degree-profile")
    chains = _hub_chains(edge_adjacency(sorted(edges)), min(hubs))
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

    Raises NotABlockError when the argument is not one 2-connected
    block: one component, with no bridge and one cycle block.
    """
    d = decompose(block.to_graph()[0])
    if d.component_count != 1 or d.bridges or len(d.cycle_blocks) != 1:
        raise NotABlockError("not a 2-connected block of at least 3 vertices")
    return _classify(block.edges, len(block.vertices))


def _cycle_blocks(g, decomposition):
    """The component count, and each cycle block as (least vertex,
    vertex count, edge list), ordered by least vertex.  Without a
    decomposition the edge lists are Hopcroft-Tarjan's raw slices, read
    here for their vertex set only; the classifier sorts just the
    slices of two-hub blocks."""
    if decomposition is not None:
        return decomposition.component_count, [
            (b.vertices[0], len(b.vertices), b.edges) for b in decomposition.cycle_blocks]
    comps, _, component_count = _biconnected_components(g.vertex_count, g.adjacency)
    blocks = []
    for edges in comps:
        if len(edges) > 1:
            vertices = set(chain.from_iterable(edges))
            blocks.append((min(vertices), len(vertices), edges))
    # stable: blocks that share their least vertex, a cut vertex, keep
    # the order in which the DFS closed them
    blocks.sort(key=itemgetter(0))
    return component_count, blocks


def _shapes(blocks):
    return tuple([_classify(edges, size) for _, size, edges in blocks])


def _cycle_witness(block):
    """Vertex sequence of a CycleShape block, canonical start/direction."""
    adj = block.adjacency()
    start = block.vertices[0]
    seq = [start, min(adj[start])]
    while True:
        x, y = adj[seq[-1]]
        nxt = y if x == seq[-2] else x
        if nxt == start:
            return tuple(seq)
        seq.append(nxt)


def _chain_pair_cycle(c1, c2):
    """Simple cycle from two hub-to-hub chains (shared endpoints only)."""
    return tuple(c1[:-1] + list(reversed(c2[1:])))


def _book_witness(block):
    adj = block.adjacency()
    a = next(v for v in block.vertices if len(adj[v]) > 2)
    chains = _hub_chains(adj, a)
    return _chain_pair_cycle(chains[0], chains[1])


def _theta_witness_pair(chains):
    """Two cycles of distinct lengths from the hub-to-hub chains (three
    or more, not all of one length) of a two-hub block."""
    shortest, third, *_, longest = sorted(chains, key=len)
    return _chain_pair_cycle(shortest, third), _chain_pair_cycle(longest, third)


def _oracle_witness_pair(block, budget):
    sub, mapping = block.to_graph()
    try:
        pair = extreme_cycles(sub, budget)
    except BudgetExceededError:
        return None
    if pair is None or len(pair[0]) == len(pair[1]):
        return None
    return tuple(tuple(mapping[v] for v in c) for c in pair)


def _common_r(shapes):
    """The cycle length r that every shape has, or None."""
    rs = {s.r for s in shapes}
    return rs.pop() if len(rs) == 1 else None


def _witness_pair(blocks, shapes, budget):
    """Two simple cycles of distinct lengths, shorter first, or None.
    blocks are _cycle_blocks rows; a Block is built only for a block
    walked here.  Theta and oracle pairs come in that order (a theta
    pairs its shortest and longest chain with a third; the oracle gives
    a shortest and a longest cycle)."""
    budget = budget or SearchBudget()
    budget.validate()
    # a single misshapen block always contains both lengths
    for (_, size, edges), shape in zip(blocks, shapes):
        if not isinstance(shape, OtherShape):
            continue
        if shape.chains is None and shape.reason in (
                "endpoints-adjacent-structure", "unequal-path-lengths"):
            shape = _classify(edges, size)  # a shape made by hand carries no chains
            if not isinstance(shape, OtherShape):
                continue  # the block is well-shaped after all
        if shape.chains is not None:
            pair = _theta_witness_pair(shape.chains)
        elif size > budget.max_vertices:
            pair = None  # an over-budget block is never copied
        else:
            pair = _oracle_witness_pair(Block.of(edges), budget)
        if pair is not None:
            return pair
    # otherwise two well-shaped blocks disagree on r
    by_r = {}
    for (_, _, edges), shape in zip(blocks, shapes):
        if shape.r is not None and shape.r not in by_r:
            witness = _cycle_witness if isinstance(shape, CycleShape) else _book_witness
            by_r[shape.r] = witness(Block.of(edges))
    # by length, not by r: a shape made by hand may state a wrong r
    by_len = {len(c): c for c in by_r.values()}
    if len(by_len) >= 2:
        return by_len[min(by_len)], by_len[max(by_len)]
    return None


def decide(g, budget=None, witnesses=False, decomposition=None):
    """The main decision procedure.

    Returns AllCyclesEqual(r, ...) iff every cycle block is C_r or
    B(r/2, r, p) for one common r, Acyclic when there are no cycle
    blocks, and DistinctLengths otherwise.  The decision never
    enumerates cycles: one Hopcroft-Tarjan pass cuts the graph's edges
    into block slices, and each slice is classified from its degree
    profile, walking hub-to-hub chains only in a two-hub block.
    decomposition, if given, must be decompose(g); its blocks are
    classified in place of the slices.

    Pass witnesses=True to also extract a concrete pair of unequal
    cycles on rejection; only then is a Block built, and only for the
    blocks the witness search walks.  The fallback search for a block's
    shortest and longest cycle is budgeted: a block over
    budget.max_vertices, or a tripped state guard, gives status
    'decision-only'; a budget field <= 0 raises ValueError.
    """
    component_count, blocks = _cycle_blocks(g, decomposition)
    notes = ()
    if component_count > 1:
        notes = ("input is disconnected; decided over all components",)
    if not blocks:
        return Acyclic(notes)
    shapes = _shapes(blocks)
    r = _common_r(shapes)
    if r is not None:
        return AllCyclesEqual(r, shapes, notes)
    pair = _witness_pair(blocks, shapes, budget) if witnesses else None
    if pair is None:
        return DistinctLengths(None, None, "decision-only", shapes, notes)
    return DistinctLengths(*pair, "exact", shapes, notes)


def extract_witnesses(g, shapes=None, budget=None, decomposition=None):
    """Two simple cycles of distinct lengths for a rejected graph.

    Returns ((cycle_a, cycle_b), status).  Raises NotRejectedError when
    the graph is accepted or acyclic.  decomposition, if given, must be
    decompose(g).
    """
    _, blocks = _cycle_blocks(g, decomposition)
    if shapes is None:
        shapes = _shapes(blocks)
    if not blocks or _common_r(shapes) is not None:
        raise NotRejectedError("graph does not contain two distinct cycle lengths")
    pair = _witness_pair(blocks, shapes, budget)
    return pair, "decision-only" if pair is None else "exact"
