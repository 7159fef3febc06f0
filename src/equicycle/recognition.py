"""Decide whether every cycle of a graph has the same length.

Each cycle block must be a single cycle C_r, or (for even r) a
generalized book B(r/2, r, p): p+1 internally disjoint paths of equal
length r/2 between two hub vertices.  Any other block shape, or two
blocks implying different r, forces two distinct cycle lengths.

The decision is one linear pass, decomposition.chain_decomposition,
which gives each block as its chains, an ear decomposition of it.  C_r
is one chain.  In any other block the hubs are the ends of every chain
but the first; with two hubs, the first cycle split at them and the
later chains are the hub-to-hub paths, whose lengths settle the shape.
This pass is the only way any caller gets block shapes: decide,
extract_witnesses and bounds.certify_graph all read them from it, so
every block carries the shape this one classifier gave it, which
decides where its witnesses come from.

Every rejection is given two witness cycles of distinct lengths, in
linear time and with no search budget.  They come from the first
misshapen block: from its hub-to-hub paths when it has two hubs, and
otherwise from its chains replayed, the first ones as a cycle or a
book and the first chain that breaks it as an ear.  When every block is
well-shaped, they come from two blocks of different r.
"""

from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

from .decomposition import chain_decomposition
from .errors import NotRejectedError


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


def _chain(parent, v, w, x):
    """A chain's vertices from its record: v, w, then up the tree to x."""
    path = [v, w]
    while w != x:
        w = parent[w]
        path.append(w)
    return path


def _hub_paths(parent, chains):
    """The paths between the two hubs of a two-hub block, each from the
    lesser hub, ordered by second vertex: the first cycle split at the
    hubs, the ends of the second chain, and every later chain.  A later
    chain's inner vertices have degree 2 and its ends are hubs, so it
    joins the two."""
    a, b = sorted(chains[4:7:2])
    ring = _chain(parent, *chains[:3])
    i = ring.index(a)
    ring = ring[i:-1] + ring[:i]
    j = ring.index(b)
    paths = [ring[:j + 1], ring[:1] + ring[:j - 1:-1]]
    for q in range(4, len(chains), 4):
        path = _chain(parent, *chains[q:q + 3])
        if path[0] != a:
            path.reverse()
        paths.append(path)
    paths.sort(key=itemgetter(1))
    return paths


def _classify(parent, chains):
    """Shape of a cycle block from its chains (chain_decomposition's
    flat records); the hub-to-hub paths are walked, by _hub_paths, only
    when it has two hubs."""
    if len(chains) == 4:
        return CycleShape(chains[3])
    # every chain but the first adds one to the degree of its two ends,
    # so the hubs are the second chain's ends if every later one has them
    if not set(chains[4:7:2]).issuperset(islice(chains, 8, None, 2)):
        return _DEGREE_PROFILE
    paths = _hub_paths(parent, chains)
    lens = [len(c) - 1 for c in paths]
    if len(set(lens)) > 1:
        if 1 in lens:
            return OtherShape("endpoints-adjacent-structure", paths)
        return OtherShape("unequal-path-lengths", paths)
    k = lens[0]
    # equal lengths with k = 1 would need parallel edges; unreachable in
    # a simple graph, kept as a guard
    if k < 2:
        return OtherShape("endpoints-adjacent-structure")
    return BookShape(k, len(paths) - 1)


def _cycle_blocks(g):
    """The component count; each cycle block as a row (least vertex,
    chains, shape), in chain_decomposition's order; and the depth-first
    forest's parent list, along which the witness path walks a row's
    chains."""
    component_count, parent, _, _, rows = chain_decomposition(g)
    return (component_count,
            [(least, chains, _classify(parent, chains)) for least, _, _, _, chains in rows],
            parent)


def _chain_pair_cycle(c1, c2):
    """Simple cycle from two hub-to-hub chains (shared endpoints only)."""
    return tuple(c1[:-1] + list(reversed(c2[1:])))


def _block_cycle(parent, least, chains, shape):
    """A cycle of a well-shaped block, from its _cycle_blocks row: in a
    cycle, one way round from its least vertex, towards that vertex's
    smaller neighbour; in a book, its first two pages from the lesser
    hub."""
    if isinstance(shape, CycleShape):
        ring = _chain(parent, *chains[:3])[:-1]
        i = ring.index(least)
        ring = ring[i:] + ring[:i]
        return tuple(ring if ring[1] < ring[-1] else ring[:1] + ring[:0:-1])
    return _chain_pair_cycle(*_hub_paths(parent, chains)[:2])


def _theta_witness_pair(chains):
    """Two cycles of distinct lengths from the hub-to-hub chains (three
    or more, not all of one length) of a two-hub block."""
    shortest, third, *_, longest = sorted(chains, key=len)
    return _chain_pair_cycle(shortest, third), _chain_pair_cycle(longest, third)


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


def _replay_witness_pair(parent, chains):
    """Two cycles of distinct lengths in a block with more than two
    hubs, by replaying its chains.  The second chain joins two vertices
    of the first cycle: with the cycle's two arcs, three paths between
    them; unequal lengths give the pair.  Equal ones are the first
    pages of a book with those two vertices as hubs, which takes each
    later chain of page length between the hubs as a page.  Every chain
    joins two vertices already on the book, and the block is no book,
    so the first other chain is an ear that breaks it."""
    ring = _chain(parent, *chains[:3])[:-1]
    ear = _chain(parent, *chains[4:7])
    n = len(ring)
    i = ring.index(ear[0])
    d = (ring.index(ear[-1]) - i) % n
    first = [[ring[(i + m) % n] for m in range(d + 1)],
             [ring[(i - m) % n] for m in range(n - d + 1)], ear]
    if len({len(p) for p in first}) > 1:
        return _theta_witness_pair(first)
    a, b = ear[0], ear[-1]
    k = len(ear) - 1
    pages = []
    at = {a: (0, 0), b: (0, k)}  # each book vertex's (page, index from a)
    later = (_chain(parent, *chains[q:q + 3]) for q in range(8, len(chains), 4))
    for ear in chain(first, later):
        if len(ear) != k + 1 or {ear[0], ear[-1]} != {a, b}:
            return _book_ear_pair(pages, at, ear)
        if ear[0] != a:
            ear.reverse()
        at.update((ear[t], (len(pages), t)) for t in range(1, k))
        pages.append(ear)
    return None  # unreachable: a block with more than two hubs is no book


def _common_r(shapes):
    """The cycle length r that every shape has, or None."""
    rs = {s.r for s in shapes}
    return rs.pop() if len(rs) == 1 else None


def _witness_pair(parent, blocks):
    """Two simple cycles of distinct lengths, shorter first, from the
    _cycle_blocks rows of a rejected graph."""
    # a single misshapen block always contains both lengths
    for _, chains, shape in blocks:
        if shape is _DEGREE_PROFILE:
            return _replay_witness_pair(parent, chains)
        if shape.r is None:
            return _theta_witness_pair(shape.chains)
    # otherwise two well-shaped blocks disagree on r: the first block of
    # the least r and the first of the greatest give one cycle each
    rs = [shape.r for _, _, shape in blocks]
    return tuple(_block_cycle(parent, *blocks[rs.index(r)]) for r in (min(rs), max(rs)))


def decide(g, witnesses=False, decomposition=None):
    """The main decision procedure.

    Returns AllCyclesEqual(r, ...) iff every cycle block is C_r or
    B(r/2, r, p) for one common r, Acyclic when there are no cycle
    blocks, and DistinctLengths otherwise.  The decision never
    enumerates cycles: one pass, a depth-first search and its chain
    decomposition, gives each block as its chains, and each block is
    classified from their count and ends, walking hub-to-hub paths only
    in a two-hub block.
    decomposition is ignored: the blocks are always this pass's own.  It
    is still accepted because the benchmark harness's traced pipeline
    (bench/measure.py) passes decompose(g); it goes with that caller.

    Pass witnesses=True to also attach a pair of cycles of distinct
    lengths, shorter first, to every rejection (status 'exact'; without
    witnesses the status is 'decision-only').  The pair costs linear
    time and no budget: it comes from the first misshapen block, by its
    hub-to-hub paths when it has two hubs and by replaying its chains
    otherwise, or from two blocks of different r.
    """
    component_count, blocks, parent = _cycle_blocks(g)
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
    return DistinctLengths(*_witness_pair(parent, blocks), "exact", shapes, notes)


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
    _, blocks, parent = _cycle_blocks(g)
    if not blocks or _common_r([shape for _, _, shape in blocks]) is not None:
        raise NotRejectedError("graph does not contain two distinct cycle lengths")
    return _witness_pair(parent, blocks), "exact"
