"""Command-line front end.

One verb per subsystem: check, decompose, oracle, bound, certify, gen.
Each verb except gen builds one dict: --json emits it as a single
compact object on stdout, and text mode formats its lines from it.
Output is stable across runs.  Exit codes: 0 success, 1 domain
rejection (failed --expect), 2 usage or input errors.
"""

import argparse
import functools
import gc
import json
import sys
from dataclasses import asdict

from . import bounds as bounds_mod
from .decomposition import decompose
from .errors import GraphError, ParseError
from .generators import book, complete, complete_bipartite, cycle, path, wedge
from .graph import parse_edge_list, serialize_edge_list
from .oracle import SearchBudget, cycle_spectrum
from .recognition import Acyclic, AllCyclesEqual, BookShape, CycleShape, DistinctLengths, decide

_STATUS = {
    Acyclic: "acyclic", AllCyclesEqual: "all_cycles_equal", DistinctLengths: "distinct_lengths"}
_EXPECT = {"equal": "all_cycles_equal", "distinct": "distinct_lengths"}
_SHAPE_TEXT = {"cycle": "cycle({r})", "book": "book(k={k}, p={p})", "other": "other({reason})"}

# gen family -> (its integer options, constructor taking them in order)
_GEN = {
    "cycle": (("m",), cycle),
    "path": (("m",), path),
    "complete": (("m",), complete),
    "bipartite": (("a", "b"), complete_bipartite),
    "book": (("n", "l", "p"), book),
    "extremal": (("n", "r"), bounds_mod.extremal),
}


def _emit(args, obj, lines):
    """Print a verb's output model obj as JSON, or as lines(obj)."""
    if args.json:
        print(json.dumps(obj, separators=(",", ":")))
    else:
        for line in lines(obj):
            print(line)


def _load_graph(filename):
    with open(filename, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    del data  # parsing allocates most; the raw bytes need not stay alive for it
    return parse_edge_list(text)


def _named(g, ids):
    """Dense vertex ids as the input file's labels, for output."""
    return list(ids) if g.labels is None else [g.labels[v] for v in ids]


def _shape(shape):
    if isinstance(shape, CycleShape):
        return {"shape": "cycle", "r": shape.r}
    if isinstance(shape, BookShape):
        return {"shape": "book", "k": shape.k, "p": shape.p, "r": shape.r}
    return {"shape": "other", "reason": shape.reason}


def _cmd_check(args):
    g = _load_graph(args.file)
    decision = decide(g, witnesses=args.witness)
    status = _STATUS[type(decision)]
    obj = {"status": status}
    if status == "all_cycles_equal":
        obj["r"] = decision.r
    if status != "acyclic":
        obj["blocks"] = [_shape(s) for s in decision.shapes]
    if status == "distinct_lengths" and decision.witness_a is not None:
        obj["witness"] = {
            "cycle_a": _named(g, decision.witness_a),
            "cycle_b": _named(g, decision.witness_b),
            "lengths": [len(decision.witness_a), len(decision.witness_b)],
        }
    if decision.notes:
        obj["notes"] = list(decision.notes)
    _emit(args, obj, _check_lines)
    return int(_EXPECT.get(args.expect, status) != status)


def _check_lines(obj):
    if obj["status"] == "acyclic":
        yield "acyclic: no cycles"
    else:
        yield (f"all cycles have length {obj['r']}" if obj["status"] == "all_cycles_equal"
               else "two distinct cycle lengths exist")
        yield "blocks: " + ", ".join(_SHAPE_TEXT[s["shape"]].format(**s) for s in obj["blocks"])
    if "witness" in obj:
        for cyc in (obj["witness"]["cycle_a"], obj["witness"]["cycle_b"]):
            yield f"cycle of length {len(cyc)}: " + " ".join(map(str, cyc))
    for note in obj.get("notes", ()):
        yield f"note: {note}"


def _cmd_decompose(args):
    g = _load_graph(args.file)
    d = decompose(g)
    obj = {
        "bridges": [_named(g, e) for e in d.bridges],
        "cut_vertices": _named(g, d.cut_vertices),
        "blocks": [
            {"vertices": _named(g, b.vertices), "edges": [_named(g, e) for e in b.edges]}
            for b in d.cycle_blocks
        ],
    }
    _emit(args, obj, _decompose_lines)
    return 0


def _decompose_lines(obj):
    yield "bridges: " + (", ".join(f"{u}-{v}" for u, v in obj["bridges"]) or "none")
    yield "cut vertices: " + (", ".join(map(str, obj["cut_vertices"])) or "none")
    for i, b in enumerate(obj["blocks"]):
        yield f"block {i}: vertices {' '.join(map(str, b['vertices']))}"


def _cmd_oracle(args):
    g = _load_graph(args.file)
    report = cycle_spectrum(g, SearchBudget(max_vertices=args.max_vertices))
    obj = {
        "girth": report.girth,
        "circumference": report.circumference,
        "lengths": list(report.lengths),
        "witnesses": {str(k): _named(g, report.witnesses[k]) for k in report.lengths},
    }
    _emit(args, obj, _oracle_lines)
    return 0


def _oracle_lines(obj):
    if not obj["lengths"]:
        yield "acyclic: no cycles"
        return
    yield f"girth: {obj['girth']}"
    yield f"circumference: {obj['circumference']}"
    yield "lengths: " + " ".join(map(str, obj["lengths"]))


def _cmd_bound(args):
    if args.r is None:
        rep = bounds_mod.max_edges_any_r(args.n)
    else:
        rep = bounds_mod.max_edges(args.n, args.r)
    extremal = None if rep.r is None else {"p": rep.p, "c": rep.c}
    _emit(args, {"n": rep.n, "r": rep.r, "bound": rep.bound, "extremal": extremal}, _bound_lines)
    return 0


def _bound_lines(obj):
    if obj["r"] is None:
        yield f"2n-4 bound: {obj['bound']}"
    else:
        yield "bound for r={r}: {bound} (p={p}, c={c})".format(**obj, **obj["extremal"])


def _cmd_certify(args):
    _emit(args, asdict(bounds_mod.certify_distinct(args.n, args.m, args.r)), _certify_lines)
    return 0


def _certify_lines(obj):
    if obj["verdict"] == "must_contain_distinct_lengths":
        yield (f"must contain two cycles of different lengths: {obj['m']} > {obj['cited_bound']}"
               f" (premises: {', '.join(obj['premises'])})")
    else:
        yield f"inconclusive: {obj['m']} <= {obj['cited_bound']}"


def _cmd_gen(args):
    if args.family == "wedge":
        g = wedge(*map(_load_graph, args.files))
    else:
        names, make = _GEN[args.family]
        g = make(*(getattr(args, name) for name in names))
    text = serialize_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _positive_int(text):
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


@functools.cache  # built on the first main() call, not at import
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="equicycle",
        description="Decide whether every cycle of a graph has the same length.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the decision procedure on an edge list")
    p.add_argument("file")
    p.add_argument("--expect", choices=["equal", "distinct"])
    p.add_argument("--witness", action="store_true",
                   help="attach two cycles of distinct lengths on rejection")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="bridges, cut vertices and cycle blocks")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="exhaustive cycle spectrum")
    p.add_argument("file")
    p.add_argument("--max-vertices", type=_positive_int, default=14)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bound", help="edge bound for equal cycle lengths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("certify", help="distinct-cycle-lengths certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("gen", help="generate a named graph as an edge list")
    gsub = p.add_subparsers(dest="family", required=True)
    for family, (names, _) in _GEN.items():
        q = gsub.add_parser(family)
        for name in names:
            q.add_argument(f"--{name}", type=int, required=True)
        q.add_argument("-o", "--output")
    q = gsub.add_parser("wedge")
    q.add_argument("files", nargs="+")
    q.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # The verbs make no reference cycles, so the cyclic collector would
    # only rescan the graph being built; the caller's setting is restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # e.g. a `vertices N` header far beyond the file
        print("error: out of memory", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
