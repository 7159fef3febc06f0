"""Independent output checker.

Nothing here uses equicycle: tiny and small graphs are checked against a
bitmask brute-force cycle search, big graphs against the answers known
from their construction (see gen.py), and every witness is checked to be
two simple cycles of the input with different lengths.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from collections import Counter


def cycle_lengths(n, edges, limit=2):
    """Distinct simple-cycle lengths of the graph, found by depth-first
    search over simple paths with a bitmask of visited vertices.  Each
    cycle is rooted at its least vertex.  Stops once `limit` lengths are
    known, which is enough to tell one length from two."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    lengths = set()
    for s in range(n):
        higher = ~((2 << s) - 1)
        stack = [(s, 1 << s, 1)]
        while stack:
            v, mask, k = stack.pop()
            if k >= 3 and adj[v] >> s & 1 and k not in lengths:
                lengths.add(k)
                if len(lengths) >= limit:
                    return lengths
            nxt = adj[v] & higher & ~mask
            while nxt:
                low = nxt & -nxt
                stack.append((low.bit_length() - 1, mask | low, k + 1))
                nxt ^= low
    return lengths


def expected_verdict(n, edges):
    """(status, r) that a correct decision procedure must return."""
    lengths = cycle_lengths(n, edges)
    if not lengths:
        return ("acyclic", None)
    if len(lengths) == 1:
        return ("all_cycles_equal", next(iter(lengths)))
    return ("distinct_lengths", None)


def edge_set(edges):
    return {(u, v) if u < v else (v, u) for u, v in edges}


def cycle_problems(cycle, edges):
    k = len(cycle)
    if k < 3:
        return [f"witness {list(cycle)} has fewer than 3 vertices"]
    if len(set(cycle)) != k:
        return [f"witness {list(cycle)} repeats a vertex"]
    for i in range(k):
        u, w = cycle[i], cycle[(i + 1) % k]
        if ((u, w) if u < w else (w, u)) not in edges:
            return [f"witness {list(cycle)} uses non-edge ({u}, {w})"]
    return []


def witness_problems(a, b, edges):
    """Both cycles must be simple cycles of the graph with `edges` (a set
    of (u, v) pairs, u < v), of different lengths."""
    problems = cycle_problems(a, edges) + cycle_problems(b, edges)
    if len(a) == len(b):
        problems.append(f"witness lengths are equal ({len(a)})")
    return problems


def stream_problems(output, expected, edges):
    """Check one decision on a tiny or small graph.

    output is (status, r, witness_a, witness_b, witness_status); an
    exception recorded in place of a decision has status 'error'.
    """
    status, r, a, b, _ = output
    if status == "error":
        return [f"raised {r}"]
    if (status, r) != expected:
        return [f"verdict {(status, r)} != expected {expected}"]
    if a is not None or b is not None:
        if status != "distinct_lengths" or a is None or b is None:
            return ["witness attached to a verdict that cannot have one"]
        return witness_problems(a, b, edges)
    return []


def big_accept_problems(obj, answer):
    """Check `check --json --witness` output on a big_accept graph."""
    if obj.get("status") != answer["status"] or obj.get("r") != answer["r"]:
        return [f"verdict {obj.get('status')} r={obj.get('r')} != expected r={answer['r']}"]
    problems = []
    blocks = obj.get("blocks", [])
    shapes = Counter(b.get("shape") for b in blocks)
    books = Counter(str(b.get("p")) for b in blocks if b.get("shape") == "book")
    if shapes["cycle"] != answer["cycles"] or dict(books) != answer["books"] or shapes["other"]:
        problems.append(f"block shapes {dict(shapes)} books {dict(books)} do not match construction")
    if any(b.get("r") != answer["r"] for b in blocks):
        problems.append("a block reports r != 6")
    if "witness" in obj or "notes" in obj:
        problems.append("unexpected witness or note on a connected accepted graph")
    return problems


def big_reject_problems(obj, answer, edges):
    """Check `check --json --witness` output on a big_reject graph."""
    if obj.get("status") != answer["status"] or "r" in obj:
        return [f"verdict {obj.get('status')} != expected {answer['status']}"]
    blocks = obj.get("blocks", [])
    if len(blocks) != answer["blocks"] or blocks[0].get("shape") != "other":
        return [f"blocks {blocks[:3]} != one block of other shape"]
    if "witness" in obj:
        w = obj["witness"]
        a, b = w.get("cycle_a", []), w.get("cycle_b", [])
        problems = witness_problems(a, b, edges)
        if w.get("lengths") != [len(a), len(b)]:
            problems.append("witness lengths field does not match the cycles")
        return problems
    return []


def self_test():
    """Show that planted wrong outputs are counted as failures; raise
    RuntimeError if the checker would let one through."""
    c4 = (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c4_chord = (4, c4[1] + [(0, 2)])
    cases = [
        # (graph, output, should_fail)
        (c4, ("all_cycles_equal", 4, None, None, "decision-only"), False),
        (c4, ("distinct_lengths", None, None, None, "decision-only"), True),
        (c4, ("all_cycles_equal", 3, None, None, "decision-only"), True),
        (c4_chord, ("distinct_lengths", None, (0, 1, 2), (0, 1, 2, 3), "exact"), False),
        (c4_chord, ("distinct_lengths", None, (0, 1, 3), (0, 1, 2, 3), "exact"), True),
        (c4_chord, ("distinct_lengths", None, (0, 1, 2), (0, 2, 3), "exact"), True),
        (c4_chord, ("distinct_lengths", None, (0, 1, 2), (0, 1, 2, 1), "exact"), True),
        (c4_chord, ("error", "ValueError()", None, None, None), True),
    ]
    for (n, edges), output, should_fail in cases:
        failed = bool(stream_problems(output, expected_verdict(n, edges), edge_set(edges)))
        if failed != should_fail:
            raise RuntimeError(f"checker self-test: {output} on {edges} failed={failed}")
    accept = {"status": "all_cycles_equal", "r": 6, "cycles": 1, "books": {"2": 1}}
    good = {"status": "all_cycles_equal", "r": 6, "blocks": [
        {"shape": "cycle", "r": 6}, {"shape": "book", "k": 3, "p": 2, "r": 6}]}
    wrong_r = dict(good, r=4)
    if big_accept_problems(good, accept) or not big_accept_problems(wrong_r, accept):
        raise RuntimeError("checker self-test: big_accept verdict check")
    reject = {"status": "distinct_lengths", "blocks": 1}
    edges = edge_set(c4_chord[1])
    bad_witness = {"status": "distinct_lengths", "blocks": [{"shape": "other"}],
                   "witness": {"cycle_a": [0, 1, 3], "cycle_b": [0, 1, 2, 3], "lengths": [3, 4]}}
    if not big_reject_problems(bad_witness, reject, edges):
        raise RuntimeError("checker self-test: big_reject witness check")
