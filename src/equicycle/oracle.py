"""Ground-truth cycle analysis by exhaustive search.

girth() is polynomial (per-root BFS) and exempt from the budget;
cycle_spectrum() enumerates all simple cycles and is guarded by a
SearchBudget.  It backs the `oracle` verb and is the independent
verifier for the structural decision procedure; neither the decision
nor its witness cycles use this module.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import count

from .errors import BudgetExceededError, OverBudgetError


@dataclass(frozen=True)
class SearchBudget:
    max_vertices: int = 14
    max_visited_states: int = 5_000_000

    def validate(self):
        if self.max_vertices <= 0 or self.max_visited_states <= 0:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class CycleReport:
    """girth/circumference are None for acyclic graphs.  witnesses maps
    each length to the lexicographically least vertex sequence realizing
    a cycle of that length."""

    girth: int | None
    circumference: int | None
    lengths: tuple
    witnesses: dict = field(default_factory=dict)


def girth(g):
    """Exact girth via per-root BFS, or None if g is a forest.

    For each root, any non-tree edge (x, y) met during BFS closes a
    walk of length dist[x]+dist[y]+1 through the root; every such walk
    contains a cycle no longer than it, and a root on a shortest cycle
    realizes its length exactly, so the minimum over roots is the girth.
    """
    best = None
    adj = g.adjacency
    for root in range(g.vertex_count):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            dx = dist[x]
            if best is not None and 2 * dx >= best:
                break
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dx + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cand = dx + dist[y] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def _cycles(adj, root, tick, max_states):
    """Yield each simple cycle with least vertex root, once, oriented
    toward root's smaller neighbour on it: in lexicographic order if
    neighbour tuples are sorted.  Each path extension draws from the
    shared counter tick; the draw past max_states raises
    BudgetExceededError."""
    path = [root]
    on_path = {root}
    stack = [iter(adj[root])]
    while stack:
        for y in stack[-1]:
            if y == root:
                if len(path) >= 3 and path[1] < path[-1]:
                    yield tuple(path)
                continue
            if y < root or y in on_path:
                continue
            states = next(tick)
            if states > max_states:
                raise BudgetExceededError(states)
            path.append(y)
            on_path.add(y)
            stack.append(iter(adj[y]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())


def cycle_spectrum(g, budget=None):
    """Enumerate every simple cycle length with one canonical witness.

    Cycles are deduplicated by rooting each at its least vertex and
    fixing orientation toward the smaller of the two neighbors on the
    cycle; the retained witness per length is the lexicographically
    least one.  Deterministic.
    """
    if budget is None:
        budget = SearchBudget()
    budget.validate()
    n = g.vertex_count
    if n > budget.max_vertices:
        raise OverBudgetError(n, budget.max_vertices)
    tick = count(1)
    witnesses = {}
    for root in range(n):
        for w in _cycles(g.adjacency, root, tick, budget.max_visited_states):
            k = len(w)
            if k not in witnesses or w < witnesses[k]:
                witnesses[k] = w

    lengths = tuple(sorted(witnesses))
    return CycleReport(
        girth=lengths[0] if lengths else None,
        circumference=lengths[-1] if lengths else None,
        lengths=lengths,
        witnesses=witnesses,
    )
