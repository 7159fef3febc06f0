"""Decide whether every cycle of a graph has the same length.

Each cycle block must be a single cycle C_r, or (for even r) a
generalized book B(r/2, r, p): p+1 internally disjoint paths of equal
length r/2 between two hub vertices.  Any other block shape, or two
blocks implying different r, forces two distinct cycle lengths.

The decision is one linear pass, decomposition.chain_decomposition,
which gives each block as its chains, an ear decomposition of it.  C_r
is one chain.  In any other block the hubs are the ends of every chain
but the first; with two hubs, the first cycle's arcs between them and
the later chains are the hub-to-hub paths, whose lengths, read off the
records and one walk up the tree, settle the shape; no path is built.
The pass's invariant is read, never re-checked: a chain that closes no
cycle ends at a strict descendant of its start.  decide, the only
source of block shapes, gives each of the pass's rows one; the list of
their r, None when misshapen, decides and picks the witnesses' rows.

Every rejection is given two witness cycles of distinct lengths, in
linear time and with no search budget.  They come from the first
misshapen block, whatever its hubs, by replaying its chains: the first
ones as a cycle or a book and the first chain that breaks it as an ear.
When every block is well-shaped, they come from two blocks of
different r, each giving its first chain's cycle.
"""

from itertools import islice
from typing import NamedTuple

from .decomposition import chain_decomposition
from .errors import NotRejectedError


class CycleShape(NamedTuple):
    """Block is the plain cycle C_r."""

    r: int


class BookShape(NamedTuple):
    """Block is B(k, 2k, p): p+1 disjoint length-k paths between two
    hubs; every cycle in it has length 2k."""

    k: int
    p: int

    @property
    def r(self):
        return 2 * self.k


class OtherShape(NamedTuple):
    """Block matches neither accepted shape; reason is one of
    degree-profile, unequal-path-lengths, endpoints-adjacent-structure.
    The classifier gives each reason as one module constant."""

    reason: str

    r = None


_DEGREE_PROFILE = OtherShape("degree-profile")
_UNEQUAL_PATHS = OtherShape("unequal-path-lengths")
_ENDPOINTS_ADJACENT = OtherShape("endpoints-adjacent-structure")


class AllCyclesEqual(NamedTuple):
    r: int
    shapes: tuple
    notes: tuple = ()


class DistinctLengths(NamedTuple):
    """witness_a and witness_b are two cycles of distinct lengths,
    shorter first, which decide(g, witnesses=True) always attaches, or
    None when witnesses were not asked for."""

    witness_a: tuple | None = None
    witness_b: tuple | None = None
    shapes: tuple = ()
    notes: tuple = ()

    @property
    def witness_status(self):  # derived from the pair, never stored
        return "decision-only" if self.witness_a is None else "exact"


class Acyclic(NamedTuple):
    notes: tuple = ()


def _chain(parent, v, w, x):
    """A chain's vertices from its record: v, w, then up the tree to x."""
    path = [v, w]
    while w != x:
        w = parent[w]
        path.append(w)
    return path


def _classify(parent, chains):
    """Shape of a cycle block from its chains (chain_decomposition's
    flat records), read from their count, ends and lengths.  Only a
    two-hub block walks the tree, once, from the second chain's end up
    to its start: that is one arc of the first cycle between the hubs,
    and no path is built."""
    if len(chains) == 4:
        return CycleShape(chains[3])
    # every chain but the first adds one to the degree of its two ends,
    # so the hubs are the second chain's ends if every later one has them
    a, b = chains[4:7:2]
    if not {a, b}.issuperset(islice(chains, 8, None, 2)):
        return _DEGREE_PROFILE
    # a chain's end is a strict descendant of its start, and both hubs
    # lie on the first cycle's tree path: b's walk up to a is one arc
    y, d = b, 0
    while y != a:
        y, d = parent[y], d + 1
    lens = {d, chains[3] - d, *chains[7::4]}
    if len(lens) > 1:
        return _ENDPOINTS_ADJACENT if 1 in lens else _UNEQUAL_PATHS
    # one length d = 1 would make the first cycle 2 long: d >= 2 here
    return BookShape(d, len(chains) // 4)


def _block_cycle(parent, chains):
    """A cycle of a well-shaped block: its first chain, one way round
    from its least vertex, towards that vertex's smaller neighbour.  A
    C_r's first chain is the whole block, and every cycle of a book has
    its length r."""
    ring = _chain(parent, *chains[:3])[:-1]
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    return tuple(ring if ring[1] < ring[-1] else ring[:1] + ring[:0:-1])


def _shorter_first(cycles):
    """The one rule that orders a witness pair: the first of cycles and
    the first one of another length, shorter first, as tuples; every
    caller passes cycles of two lengths."""
    a = cycles[0]
    for b in cycles[1:]:
        if len(b) != len(a):
            return (tuple(a), tuple(b)) if len(a) < len(b) else (tuple(b), tuple(a))


def _book_ear_pair(pages, ear):
    """Two cycles of distinct lengths in a book and an ear that is not a
    further page.  pages are the book's equal a..b paths, and the ear
    runs from u to w on the book; each end is looked up once, as the
    first page holding it and its index from a there.  A hub lies on
    every page, found on page 0 at 0 or k, so it takes the other end's."""
    k = len(pages[0]) - 1
    (i, s), (j, t) = (next((n, page.index(x)) for n, page in enumerate(pages) if x in page)
                      for x in (ear[0], ear[-1]))
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
    """Two cycles of distinct lengths in a misshapen block, by replaying
    its chains.  The second chain joins two vertices of the first cycle:
    with the cycle's two arcs, slices of its ring rotated once to start
    at the chain's first end, three paths between them; unequal lengths
    give the pair, as the shortest and the longest path each close a
    cycle with the middle one.  Equal ones, all three from its start a
    to its end b, are the first pages of a book, which takes each later
    chain of page length from a to b as a page: a chain's start is an
    ancestor of its end, so none runs from b to a.  Every chain joins
    two vertices already on the book, and the block is no book, so the
    first other chain is an ear that breaks it."""
    ring = _chain(parent, *chains[:3])[:-1]
    ear = _chain(parent, *chains[4:7])
    i = ring.index(ear[0])
    ring = ring[i:] + ring[:i]
    d = ring.index(ear[-1])
    pages = [ring[:d + 1], ring[:1] + ring[:d - 1:-1], ear]
    if len({len(p) for p in pages}) > 1:
        shortest, middle, longest = sorted(pages, key=len)
        back = middle[:0:-1]
        return _shorter_first([shortest[:-1] + back, longest[:-1] + back])
    a, b, k = ear[0], ear[-1], len(ear) - 1
    for q in range(8, len(chains), 4):
        ear = _chain(parent, *chains[q:q + 3])
        if len(ear) != k + 1 or ear[0] != a or ear[-1] != b:
            return _book_ear_pair(pages, ear)
        pages.append(ear)


def _witness_pair(parent, rows, rs):
    """Two simple cycles of distinct lengths, shorter first, from the
    chain_decomposition rows of a rejected graph and each row's r (None
    for a misshapen block): the first misshapen block's replayed chains,
    or else one cycle each from the first block of the least r and the
    first of the greatest."""
    # a single misshapen block always contains both lengths
    if None in rs:
        return _replay_witness_pair(parent, rows[rs.index(None)][4])
    return tuple(_block_cycle(parent, rows[rs.index(r)][4]) for r in (min(rs), max(rs)))


def decide(g, witnesses=False, decomposition=None):
    """The main decision procedure.

    Returns AllCyclesEqual(r, ...) iff every cycle block is C_r or
    B(r/2, r, p) for one common r, Acyclic when there are no cycle
    blocks, and DistinctLengths otherwise.  The decision never
    enumerates cycles: one pass, a depth-first search and its chain
    decomposition, gives each block as its chains, and each block is
    classified from their count, ends and lengths; only a two-hub block
    walks the tree, once from one hub up to the other.  One list holds
    the blocks' r, None for a misshapen block: one int r in all accepts.
    decomposition is ignored: the blocks are always this pass's own.  It
    is still accepted because the benchmark harness's traced pipeline
    (bench/measure.py) passes decompose(g); it goes with that caller.

    Pass witnesses=True to also attach a pair of cycles of distinct
    lengths, shorter first, to every rejection; its witness_status, read
    off the pair, is then 'exact', and else 'decision-only'.  The pair
    costs linear time and no budget: it comes from the first misshapen
    block, by replaying its chains, or else from the first chains of two
    blocks of different r, both found in that list.
    """
    component_count, parent, _, _, rows = chain_decomposition(g)
    notes = ()
    if component_count > 1:
        notes = ("input is disconnected; decided over all components",)
    if not rows:
        return Acyclic(notes)
    shapes = tuple([_classify(parent, row[4]) for row in rows])
    rs = [shape.r for shape in shapes]  # None for a misshapen block
    if rs[0] is not None and rs.count(rs[0]) == len(rs):
        return AllCyclesEqual(rs[0], shapes, notes)
    if not witnesses:
        return DistinctLengths(None, None, shapes, notes)
    return DistinctLengths(*_witness_pair(parent, rows, rs), shapes, notes)


def extract_witnesses(g, shapes=None, decomposition=None):
    """Two simple cycles of distinct lengths for a rejected graph.

    This is decide(g, witnesses=True): it returns that result's pair,
    shorter cycle first, as ((cycle_a, cycle_b), 'exact'), and raises
    NotRejectedError when decide accepts the graph or calls it acyclic.
    shapes and decomposition are ignored: the blocks are always
    decide's own.  They are still accepted because the benchmark
    harness's traced pipeline (bench/measure.py) passes decide(g).shapes
    and decompose(g); they go with that caller.
    """
    d = decide(g, witnesses=True)
    if not isinstance(d, DistinctLengths):
        raise NotRejectedError("graph does not contain two distinct cycle lengths")
    return (d.witness_a, d.witness_b), d.witness_status
