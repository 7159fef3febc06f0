"""Hypothesis strategy for graphs built from known block shapes.

Each graph joins one to three parts, each by a shared vertex or by a
bridge.  A part is a book (equal hub-to-hub paths), a theta (paths of
drawn lengths, possibly one hub-to-hub edge), a subdivided K4, or a
plain cycle.  Ears and chords between random vertices and pendant
trees are then added, and the vertex ids and edge orientations are
shuffled, so blocks of every shape and reason reach `decompose` in any
order.
"""

from itertools import combinations

from hypothesis import strategies as st

from equicycle import build


@st.composite
def structured_graphs(draw):
    edges = []
    n = 0

    def path_between(a, b, length):
        nonlocal n
        chain = [a, *range(n, n + length - 1), b]
        n += length - 1
        edges.extend(zip(chain, chain[1:]))

    for i in range(draw(st.integers(1, 3))):
        base = n
        family = draw(st.sampled_from(["book", "theta", "k4", "cycle"]))
        if family == "book":
            n += 2
            k = draw(st.integers(2, 4))
            for _ in range(draw(st.integers(2, 5))):
                path_between(base, base + 1, k)
        elif family == "theta":
            n += 2
            lengths = draw(st.lists(st.integers(2, 5), min_size=2, max_size=5))
            if draw(st.booleans()):
                lengths.append(1)
            for length in lengths:
                path_between(base, base + 1, length)
        elif family == "k4":
            n += 4
            for a, b in combinations(range(base, base + 4), 2):
                path_between(a, b, draw(st.integers(1, 3)))
        else:
            m = draw(st.integers(3, 8))
            n += m
            edges.extend((base + j, base + (j + 1) % m) for j in range(m))
        if i:
            anchor = draw(st.integers(0, base - 1))
            if draw(st.booleans()):
                edges.append((anchor, base))  # a bridge
            else:  # a shared vertex: base's edges move to anchor
                edges[:] = [tuple(anchor if x == base else x for x in e) for e in edges]

    present = {frozenset(e) for e in edges}
    for _ in range(draw(st.integers(0, 2))):  # ears; length 1 is a chord
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        length = draw(st.integers(1, 3))
        if a != b and (length > 1 or frozenset((a, b)) not in present):
            path_between(a, b, length)
            present.update(map(frozenset, edges[-length:]))
    for _ in range(draw(st.integers(0, 3))):  # pendant trees
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1

    # a vertex merged away by a shared-vertex join stays isolated
    perm = draw(st.permutations(range(n)))
    pairs = [(perm[u], perm[v]) for u, v in edges]
    return build(n, draw(st.permutations(pairs)))
