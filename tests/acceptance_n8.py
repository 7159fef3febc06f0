"""The acceptance side of the decision, exhaustively at n = 8.

brute.bound_search(8), the search behind criterion 7, visits every
8-vertex graph with at most one cycle length (3,904,143 graphs), and
prunes every extension of them by one edge that adds a second length
(5,304,333).  decide must accept each
visited graph with its one length r, or call it acyclic, and reject
each pruned extension with a witness pair: two simple cycles of the
extension, the first shorter.  It takes about 5 minutes, so it is not
a tier-1 test; CI runs it as a step of its own:

    PYTHONPATH=src python tests/acceptance_n8.py

It prints the counts and the disagreements, and exits 1 when there is
a disagreement or the search did not visit and prune those counts.
"""

import sys

from equicycle import Acyclic, AllCyclesEqual, DistinctLengths, decide
from equicycle.graph import Graph

from brute import bound_search, is_simple_cycle

N = 8
VISITED, PRUNED = 3_904_143, 5_304_333


def main():
    counts = [0, 0]
    wrong = []

    def visit(edges, r):
        counts[0] += 1
        d = decide(Graph(N, edges))
        if not (isinstance(d, AllCyclesEqual) and d.r == r if r else isinstance(d, Acyclic)):
            wrong.append((tuple(edges), r, type(d).__name__))

    def pruned(edges, e):
        counts[1] += 1
        g = Graph(N, edges + [e])
        d = decide(g, witnesses=True)
        if not (isinstance(d, DistinctLengths) and len(d.witness_a) < len(d.witness_b)
                and is_simple_cycle(g, d.witness_a) and is_simple_cycle(g, d.witness_b)):
            wrong.append((tuple(edges) + (e,), "distinct", d))

    bound_search(N, visit, pruned)
    print(f"n = {N}: {counts[0]} graphs visited, {counts[1]} extensions pruned, "
          f"{len(wrong)} disagreements")
    for case in wrong[:10]:
        print("disagreement:", case)
    return 1 if wrong or counts != [VISITED, PRUNED] else 0


if __name__ == "__main__":
    sys.exit(main())
