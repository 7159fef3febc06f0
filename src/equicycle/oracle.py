"""Ground-truth cycle analysis by exhaustive search.

cycle_spectrum() enumerates all simple cycles and is guarded by a
SearchBudget.  It backs the `oracle` verb and is the independent
verifier for the structural decision procedure; neither the decision
nor its witness cycles use this module.
"""

from itertools import count
from typing import NamedTuple

from .errors import BadParamsError, BudgetExceededError, OverBudgetError


class SearchBudget(NamedTuple):
    max_vertices: int = 14
    max_visited_states: int = 5_000_000

    def validate(self):
        if self.max_vertices <= 0 or self.max_visited_states <= 0:
            raise BadParamsError("budget fields must be positive")


class CycleReport(NamedTuple):
    """girth/circumference are None for acyclic graphs.  witnesses, a
    required field, maps each length to the lexicographically least
    vertex sequence realizing a cycle of that length: the first one the
    search yields, because Graph keeps each neighbour tuple sorted."""

    girth: int | None
    circumference: int | None
    lengths: tuple
    witnesses: dict


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
    cycle; the retained witness per length is the first one found.
    Graph's neighbour tuples are sorted, so the search yields cycles in
    lexicographic order and that first one is the least.  Deterministic.
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
            witnesses.setdefault(len(w), w)

    lengths = tuple(sorted(witnesses))
    return CycleReport(
        girth=lengths[0] if lengths else None,
        circumference=lengths[-1] if lengths else None,
        lengths=lengths,
        witnesses=witnesses,
    )
