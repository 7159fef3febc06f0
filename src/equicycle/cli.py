"""Command-line front end.

One verb per subsystem: check, decompose, oracle, bound, certify, gen.
Output is stable across runs; --json emits a single compact object on
stdout.  Exit codes: 0 success, 1 domain rejection (failed --expect),
2 usage or input errors.
"""

import argparse
import json
import sys

from . import bounds as bounds_mod
from .decomposition import decompose
from .errors import GraphError
from .generators import BookParams, WedgeSpec, book, complete, complete_bipartite, cycle, path, wedge
from .graph import parse_edge_list, serialize_edge_list
from .oracle import SearchBudget, cycle_spectrum
from .recognition import Acyclic, AllCyclesEqual, BookShape, CycleShape, decide


def _emit_json(obj):
    print(json.dumps(obj, separators=(",", ":")))


def _load_graph(filename):
    with open(filename, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _named(g, ids):
    """Dense vertex ids as the input file's labels, for output."""
    return list(ids) if g.labels is None else [g.labels[v] for v in ids]


def _shape_json(shape):
    if isinstance(shape, CycleShape):
        return {"shape": "cycle", "r": shape.r}
    if isinstance(shape, BookShape):
        return {"shape": "book", "k": shape.k, "p": shape.p, "r": shape.r}
    return {"shape": "other", "reason": shape.reason}


def _cmd_check(args):
    g = _load_graph(args.file)
    budget = SearchBudget(max_vertices=args.max_vertices)
    decision = decide(g, budget=budget, witnesses=args.witness)
    if isinstance(decision, Acyclic):
        status = "acyclic"
    elif isinstance(decision, AllCyclesEqual):
        status = "all_cycles_equal"
    else:
        status = "distinct_lengths"

    if args.json:
        obj = {"status": status}
        if status == "all_cycles_equal":
            obj["r"] = decision.r
        if status != "acyclic":
            obj["blocks"] = [_shape_json(s) for s in decision.shapes]
        if status == "distinct_lengths" and decision.witness_a is not None:
            obj["witness"] = {
                "cycle_a": _named(g, decision.witness_a),
                "cycle_b": _named(g, decision.witness_b),
                "lengths": [len(decision.witness_a), len(decision.witness_b)],
            }
        if decision.notes:
            obj["notes"] = list(decision.notes)
        _emit_json(obj)
    else:
        if status == "acyclic":
            print("acyclic: no cycles")
        elif status == "all_cycles_equal":
            print(f"all cycles have length {decision.r}")
            print("blocks: " + ", ".join(_shape_text(s) for s in decision.shapes))
        else:
            print("two distinct cycle lengths exist")
            print("blocks: " + ", ".join(_shape_text(s) for s in decision.shapes))
            if decision.witness_a is not None:
                for cyc in (decision.witness_a, decision.witness_b):
                    print(f"cycle of length {len(cyc)}: " + " ".join(map(str, _named(g, cyc))))
        for note in decision.notes:
            print(f"note: {note}")

    if args.expect == "equal" and status != "all_cycles_equal":
        return 1
    if args.expect == "distinct" and status != "distinct_lengths":
        return 1
    return 0


def _shape_text(shape):
    if isinstance(shape, CycleShape):
        return f"cycle({shape.r})"
    if isinstance(shape, BookShape):
        return f"book(k={shape.k}, p={shape.p})"
    return f"other({shape.reason})"


def _cmd_decompose(args):
    g = _load_graph(args.file)
    d = decompose(g)
    bridges = [_named(g, e) for e in d.bridges]
    cut_vertices = _named(g, d.cut_vertices)
    if args.json:
        _emit_json(
            {
                "bridges": bridges,
                "cut_vertices": cut_vertices,
                "blocks": [
                    {
                        "vertices": _named(g, b.vertices),
                        "edges": [_named(g, e) for e in b.edges],
                    }
                    for b in d.cycle_blocks
                ],
            }
        )
    else:
        print("bridges: " + (", ".join(f"{u}-{v}" for u, v in bridges) or "none"))
        print("cut vertices: " + (", ".join(map(str, cut_vertices)) or "none"))
        for i, b in enumerate(d.cycle_blocks):
            print(f"block {i}: vertices {' '.join(map(str, _named(g, b.vertices)))}")
    return 0


def _cmd_oracle(args):
    g = _load_graph(args.file)
    budget = SearchBudget(max_vertices=args.max_vertices)
    report = cycle_spectrum(g, budget)
    if args.json:
        _emit_json(
            {
                "girth": report.girth,
                "circumference": report.circumference,
                "lengths": list(report.lengths),
                "witnesses": {
                    str(k): _named(g, report.witnesses[k]) for k in report.lengths
                },
            }
        )
    else:
        if report.is_acyclic:
            print("acyclic: no cycles")
        else:
            print(f"girth: {report.girth}")
            print(f"circumference: {report.circumference}")
            print("lengths: " + " ".join(map(str, report.lengths)))
    return 0


def _cmd_bound(args):
    if args.r is None:
        rep = bounds_mod.max_edges_any_r(args.n)
    else:
        rep = bounds_mod.max_edges(args.n, args.r)
    if args.json:
        obj = {"n": rep.n, "r": rep.r, "bound": rep.bound}
        obj["extremal"] = (
            None if rep.r is None else {"p": rep.p, "c": rep.c}
        )
        _emit_json(obj)
    elif rep.r is None:
        print(f"2n-4 bound: {rep.bound}")
    else:
        print(f"bound for r={rep.r}: {rep.bound} (p={rep.p}, c={rep.c})")
    return 0


def _cmd_certify(args):
    cert = bounds_mod.certify_distinct(args.n, args.m, args.r)
    if args.json:
        _emit_json(
            {
                "n": cert.n,
                "m": cert.m,
                "r": cert.r,
                "verdict": cert.verdict,
                "cited_bound": cert.cited_bound,
                "rule": cert.rule,
                "premises": list(cert.premises),
            }
        )
    elif cert.verdict == "must_contain_distinct_lengths":
        print(
            f"must contain two cycles of different lengths: "
            f"{cert.m} > {cert.cited_bound} (premises: {', '.join(cert.premises)})"
        )
    else:
        print(f"inconclusive: {cert.m} <= {cert.cited_bound}")
    return 0


def _cmd_gen(args):
    if args.family == "cycle":
        g = cycle(args.m)
    elif args.family == "path":
        g = path(args.m)
    elif args.family == "complete":
        g = complete(args.m)
    elif args.family == "bipartite":
        g = complete_bipartite(args.a, args.b)
    elif args.family == "book":
        g = book(BookParams(args.n, args.l, args.p))
    elif args.family == "extremal":
        g = bounds_mod.extremal(args.n, args.r)
    else:  # wedge
        summands = tuple(_load_graph(f) for f in args.files)
        g = wedge(WedgeSpec(summands))
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
    p.add_argument("--max-vertices", type=_positive_int, default=14,
                   help="oracle fallback size limit for witness extraction")
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
    gen_parsers = []

    q = gsub.add_parser("cycle")
    q.add_argument("--m", type=int, required=True)
    gen_parsers.append(q)
    q = gsub.add_parser("path")
    q.add_argument("--m", type=int, required=True)
    gen_parsers.append(q)
    q = gsub.add_parser("complete")
    q.add_argument("--m", type=int, required=True)
    gen_parsers.append(q)
    q = gsub.add_parser("bipartite")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    gen_parsers.append(q)
    q = gsub.add_parser("book")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    gen_parsers.append(q)
    q = gsub.add_parser("extremal")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    gen_parsers.append(q)
    q = gsub.add_parser("wedge")
    q.add_argument("files", nargs="+")
    gen_parsers.append(q)
    for q in gen_parsers:
        q.add_argument("-o", "--output")
        q.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
