"""Seeded input generators for the benchmark workloads.

Inputs are built here with the standard library alone, never with
equicycle's own `generators` or `bounds` modules, so that a change to
those modules cannot change the load.  Each generator also returns the
answer known from its construction, which the checker compares against.
"""

import hashlib
import json
import random
from collections import Counter

BIG_EDGES = 100_000


def rng_for(workload, seed):
    # str seeds are hashed with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def big_accept(seed, target_edges=BIG_EDGES):
    """A connected graph whose every cycle has length 6: a random tree
    with C_6 blocks and B(3, 6, p) books (p = 2..6) hung on it.

    Returns (file text, answer, vertex count, edge count).  The text has
    no header and uses sparse, shuffled labels, so parsing must remap them.
    """
    rng = rng_for("big_accept", seed)
    edges = []
    n = 1
    rings = 0
    books = Counter()
    while len(edges) < target_edges:
        v = rng.randrange(n)
        kind = rng.random()
        if kind < 0.3:
            edges.append((v, n))
            n += 1
        elif kind < 0.65:
            ring = [v, n, n + 1, n + 2, n + 3, n + 4]
            n += 5
            edges.extend(zip(ring, ring[1:] + ring[:1]))
            rings += 1
        else:
            # p + 1 paths of length 3 between hubs v and h
            p = rng.randint(2, 6)
            h = n
            n += 1
            for _ in range(p + 1):
                edges += [(v, n), (n, n + 1), (n + 1, h)]
                n += 2
            books[p] += 1
    labels = rng.sample(range(10**9), n)
    rng.shuffle(edges)
    lines = []
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{labels[u]} {labels[v]}\n")
    answer = {
        "status": "all_cycles_equal",
        "r": 6,
        "cycles": rings,
        "books": {str(p): c for p, c in sorted(books.items())},
    }
    return "".join(lines), answer, n, len(edges)


def big_reject(seed, target_edges=BIG_EDGES):
    """A random Hamiltonian graph with m = 1.5 n: a cycle through all
    vertices in shuffled order plus random chords.

    A Hamiltonian graph is 2-connected, so the whole graph is one cycle
    block, and C_n with any chord has cycles of two lengths, so the
    answer is known without search.  The text has a `vertices N` header
    and dense ids, so witness ids can be checked against the file.

    Returns (file text, answer, edge set, vertex count).
    """
    rng = rng_for("big_reject", seed)
    n = target_edges * 2 // 3
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    seen = set()
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        e = (u, v) if u < v else (v, u)
        seen.add(e)
        edges.append(e)
    while len(edges) < target_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        e = (u, v) if u < v else (v, u)
        if u != v and e not in seen:
            seen.add(e)
            edges.append(e)
    rng.shuffle(edges)
    lines = [f"vertices {n}\n"]
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v}\n")
    answer = {"status": "distinct_lengths", "blocks": 1}
    return "".join(lines), answer, seen, n


# The stream generators give every n (and, for small_stream, every m) the
# same share of the graphs instead of drawing it, so that the mix, and with
# it the run's mean cost, does not vary from seed to seed.

def tiny_stream(seed, count):
    """G(n, p) graphs with n in [3, 9] and p in [0.3, 0.6]: about half
    rejected, a third acyclic and a sixth accepted."""
    rng = rng_for("tiny_decide", seed)
    graphs = []
    for i in range(count):
        n = 3 + i % 7
        p = rng.uniform(0.3, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append((n, edges))
    rng.shuffle(graphs)
    return graphs


def small_stream(seed, count):
    """Sparse G(n, m) graphs with n in [6, 14] and m in [n + 1, 2n], the
    band around the 2n - 4 edge bound, with shuffled edge orientation."""
    rng = rng_for("small_witness", seed)
    graphs = []
    for i in range(count):
        n = 6 + i % 9
        m = n + 1 + (i // 9) % n
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(pairs, m)]
        graphs.append((n, edges))
    rng.shuffle(graphs)
    return graphs


def stream_text(graphs):
    return json.dumps([[n, edges] for n, edges in graphs], separators=(",", ":"))


def fingerprint(text, graphs, vertices, edges):
    """Identity of a generated load: a hash of the exact input bytes plus
    graph, vertex and edge counts."""
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "graphs": graphs,
        "vertices": vertices,
        "edges": edges,
    }
