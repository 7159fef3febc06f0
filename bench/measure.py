"""Workload child process: load the generated inputs, drive equicycle for
the given number of seconds, and write raw results as JSON.

Run by run.py as `python3 measure.py SPEC.json` with equicycle's `src` on
PYTHONPATH.  It is a closed loop with one caller: each graph's verdict is
awaited before the next graph is sent.  The outputs of the first measured
pass over the inputs are the reference that run.py checks; every later
output must equal it.  With tracing on, untraced and traced passes
alternate so that both see the same machine state.

On a shared host the speed this process gets drifts by tens of percent
over minutes.  So a fixed reference kernel is timed after every pass, and
each pass's median latency and throughput are also expressed in units of
the kernel time next to it; those ratios stay steady while the raw times
drift.
"""

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
from array import array
from collections import Counter
from operator import itemgetter
from time import perf_counter_ns

import equicycle
from equicycle import cli, recognition
from equicycle import build, decide, decompose, extract_witnesses, parse_edge_list
from equicycle import Acyclic, AllCyclesEqual, DistinctLengths, BudgetExceededError, OverBudgetError

from tracer import Tracer

BUDGET_ERRORS = {OverBudgetError.__name__, BudgetExceededError.__name__}
WARM_UP_GRAPHS = 200
KERNEL_ITEMS = 50_000
SHAPE_NAMES = {"CycleShape": "cycle", "BookShape": "book", "OtherShape": "other"}


def status_of(decision):
    if isinstance(decision, Acyclic):
        return "acyclic"
    if isinstance(decision, AllCyclesEqual):
        return "all_cycles_equal"
    if isinstance(decision, DistinctLengths):
        return "distinct_lengths"
    raise TypeError(f"unexpected decision {decision!r}")


def summary(decision, pair=None, pair_status=None):
    """(status, r, witness_a, witness_b, witness_status) of one decision;
    pair overrides the decision's own witnesses."""
    if isinstance(decision, Exception):
        return ("error", repr(decision), None, None, None)
    status = status_of(decision)
    if status == "all_cycles_equal":
        return (status, decision.r, None, None, None)
    if status == "acyclic":
        return (status, None, None, None, None)
    if pair_status is not None:
        a, b = pair if pair else (None, None)
        return (status, None, a, b, pair_status)
    return (status, None, decision.witness_a, decision.witness_b, decision.witness_status)


def layer_counts(decomp, decision, pair_status):
    c = Counter()
    if decomp is None or isinstance(decision, Exception):
        return c
    c["decomposition.blocks"] += len(decomp.cycle_blocks)
    c["decomposition.bridges"] += len(decomp.bridges)
    c["decomposition.largest_block_edges"] = max((len(b.edges) for b in decomp.cycle_blocks), default=0)
    for shape in getattr(decision, "shapes", ()):
        c["recognition.shape." + SHAPE_NAMES.get(type(shape).__name__, "other")] += 1
    if isinstance(decision, DistinctLengths):
        c["recognition.rejected"] += 1
        c["recognition.witness_exact"] += pair_status == "exact"
    return c


def merge_counts(total, part):
    for k, v in part.items():
        if k == "decomposition.largest_block_edges":
            total[k] = max(total[k], v)
        else:
            total[k] += v


class StreamWorkload:
    """A list of small graphs, each sent through build then decide."""

    root_span = "graph"  # the span covering one graph's traced work

    def __init__(self, spec):
        with open(spec["input"], encoding="utf-8") as fh:
            self.graphs = [(n, [tuple(e) for e in edges]) for n, edges in json.load(fh)]
        self.witnesses = spec["witnesses"]

    def plain_pass(self, latencies):
        witnesses = self.witnesses
        out = []
        start = perf_counter_ns()
        for n, edges in self.graphs:
            t0 = perf_counter_ns()
            try:
                res = decide(build(n, edges), witnesses=witnesses)
            except Exception as exc:
                res = exc
            latencies.append(perf_counter_ns() - t0)
            out.append(res)
        return [summary(r) for r in out], perf_counter_ns() - start

    def warm_up(self):
        for n, edges in self.graphs[:WARM_UP_GRAPHS]:
            try:
                decide(build(n, edges), witnesses=self.witnesses)
            except Exception:
                pass  # measured passes record the failure

    def traced_pass(self, tracer, keep):
        out = []
        start = perf_counter_ns()
        span = tracer.span
        with tracer.patched(recognition, "connected_components", "graph.components"), \
                tracer.patched(recognition, "cycle_spectrum", "oracle.spectrum"):
            for i, (n, edges) in enumerate(self.graphs):
                tracer.graph_id = i
                d = pair = pair_status = None
                try:
                    with span("graph"):
                        with span("graph.build"):
                            g = build(n, edges)
                        with span("decomposition.decompose"):
                            d = decompose(g)
                        with span("recognition.classify"):
                            res = decide(g, decomposition=d)
                        if self.witnesses and isinstance(res, DistinctLengths):
                            with span("recognition.witness"):
                                pair, pair_status = extract_witnesses(g, res.shapes, decomposition=d)
                except Exception as exc:
                    res = exc
                # decompositions are kept only for the counting pass, so that
                # other traced passes hold no more live objects than untraced ones
                out.append((d if keep is not None else None, res, pair, pair_status))
        elapsed = perf_counter_ns() - start
        if keep is not None:
            for d, res, _, pair_status in out:
                merge_counts(keep, layer_counts(d, res, pair_status))
        return [summary(res, pair, pair_status) for _, res, pair, pair_status in out], elapsed


class CliWorkload:
    """One big edge-list file, checked by the in-process CLI."""

    root_span = "cli.check"

    def __init__(self, spec):
        self.path = spec["input"]
        self.argv = ["check", self.path, "--json", "--witness"]
        self.reference = None  # the warm-up call's output

    def call(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(self.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:
                rc = repr(exc)
        return rc, buf.getvalue()

    def warm_up(self):
        pass  # a CLI user meets a cold heap on every call, so the first call is measured

    def plain_pass(self, latencies):
        start = perf_counter_ns()
        out = self.call()
        latencies.append(perf_counter_ns() - start)
        if self.reference is None:
            self.reference = out
        return [out], latencies[-1]

    def traced_pass(self, tracer, keep):
        span = tracer.span
        tracer.graph_id = 0
        start = perf_counter_ns()
        # inside the CLI call, only the calls that cli.py makes are spanned,
        # so cli.check's self time is file read, argument parsing and rendering
        with tracer.patched(cli, "parse_edge_list", "cli.parse"), \
                tracer.patched(cli, "decide", "cli.decide"), span("cli.check"):
            out = self.call()
        with open(self.path, encoding="utf-8") as fh:
            text = fh.read()
        d = pair = pair_status = None
        with tracer.patched(recognition, "connected_components", "graph.components"), \
                tracer.patched(recognition, "cycle_spectrum", "oracle.spectrum"):
            try:
                with span("graph.parse"):
                    g = parse_edge_list(text)
                with span("decomposition.decompose"):
                    d = decompose(g)
                with span("recognition.classify"):
                    res = decide(g, decomposition=d)
                if isinstance(res, DistinctLengths):
                    with span("recognition.witness"):
                        pair, pair_status = extract_witnesses(g, res.shapes, decomposition=d)
            except Exception as exc:
                res = exc
        elapsed = perf_counter_ns() - start
        if keep is not None:
            merge_counts(keep, layer_counts(d, res, pair_status))
            keep["cli.output_bytes"] += len(out[1].encode())
        # the public-call pipeline must agree with the CLI's verdict
        if not self.pipeline_agrees(summary(res, pair, pair_status)):
            out = ("pipeline disagrees with cli", out[1])
        return [out], elapsed

    def pipeline_agrees(self, s):
        rc, text = self.reference
        try:
            obj = json.loads(text)
        except ValueError:
            return False
        w = obj.get("witness")
        return (s[0], s[1]) == (obj.get("status"), obj.get("r")) and (
            (s[2] is None and w is None)
            or (w is not None and list(s[2]) == w["cycle_a"] and list(s[3]) == w["cycle_b"]))


LAYER_TIMES = {
    # metric: (span name, use self time rather than total)
    "graph.parse_s": ("graph.parse", False),
    "graph.build_s": ("graph.build", False),
    "graph.components_s": ("graph.components", False),
    "decomposition.decompose_s": ("decomposition.decompose", False),
    "recognition.classify_s": ("recognition.classify", False),
    "recognition.classify_self_s": ("recognition.classify", True),
    "recognition.witness_s": ("recognition.witness", False),
    "recognition.witness_self_s": ("recognition.witness", True),
    "oracle.spectrum_s": ("oracle.spectrum", False),
    "cli.check_s": ("cli.check", False),
    "cli.self_s": ("cli.check", True),
}
COUNTS = (
    "decomposition.blocks", "decomposition.bridges", "decomposition.largest_block_edges",
    "recognition.shape.cycle", "recognition.shape.book", "recognition.shape.other",
    "recognition.rejected", "recognition.witness_exact",
    "oracle.calls", "oracle.over_budget", "cli.output_bytes",
)


def reference_kernel_ns():
    """Wall time of one run of a fixed kernel that uses no equicycle code
    but does the same kind of work: build tuples, lists and a dict, then
    sort.  Timed next to each pass, it tracks the speed the shared host
    gives this process at that moment."""
    start = perf_counter_ns()
    table = {i: (i, i * 7919 % KERNEL_ITEMS, [i]) for i in range(KERNEL_ITEMS)}
    ordered = sorted(table.values(), key=itemgetter(1))
    del table, ordered
    return perf_counter_ns() - start


def peak_rss_kb():
    """Peak resident set size of this process image.  ru_maxrss would also
    count the parent's memory, which Linux carries over through exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec):
    workload = CliWorkload(spec) if spec["kind"] == "cli" else StreamWorkload(spec)
    tracer = Tracer() if spec["trace"] else None
    budget_ns = spec["seconds"] * 1_000_000_000

    workload.warm_up()
    # the first measured pass's outputs are the reference that run.py checks
    reference = calls = mismatches = rss_kb = None

    def compare(outputs):
        nonlocal reference, calls, mismatches, rss_kb
        if reference is None:
            reference, calls, mismatches = outputs, [1] * len(outputs), [0] * len(outputs)
            # read after one pass, before the latency samples, whose number
            # grows with the program's speed, add to the process's memory
            rss_kb = peak_rss_kb()
            return
        for i, out in enumerate(outputs):
            calls[i] += 1
            if out != reference[i]:
                mismatches[i] += 1

    latencies = array("q")
    passes = []  # (median latency ns, graphs per second) of each untraced pass
    kernel_ns = []  # after each pass, once compare() has read rss_kb
    plain_ns = traced_ns = traced_ops = 0
    counts = Counter()
    first_traced_span = None
    while plain_ns + traced_ns < budget_ns or (tracer and not traced_ops):
        first = len(latencies)
        outputs, ns = workload.plain_pass(latencies)
        plain_ns += ns
        passes.append((statistics.median(latencies[first:]), len(outputs) / (ns / 1e9)))
        compare(outputs)
        kernel_ns.append(reference_kernel_ns())
        if tracer:
            start_span = len(tracer.spans)
            keep = counts if not traced_ops else None
            outputs, ns = workload.traced_pass(tracer, keep)
            if keep is not None:
                first_traced_span = (start_span, len(tracer.spans))
            traced_ns += ns
            traced_ops += len(outputs)
            compare(outputs)

    result = {
        "equicycle_file": equicycle.__file__,
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold()},
        "plain_ops": len(latencies),
        "plain_ns": plain_ns,
        "passes": len(passes),
        "kernel_ns_p50": statistics.median(kernel_ns),
        # each pass in units of the kernel run that follows it
        "graph_ref_p50": statistics.median(p50 / k for (p50, _), k in zip(passes, kernel_ns)),
        "graphs_per_ref": statistics.median(rate * k / 1e9 for (_, rate), k in zip(passes, kernel_ns)),
        "latency_ns": {"p50": statistics.median(latencies), "n": len(latencies),
                       "p99": statistics.quantiles(latencies, n=100)[98] if len(latencies) >= 1000 else None},
        "rss_kb": rss_kb,
        "calls": calls,
        "mismatches": mismatches,
        "reference": reference,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, workload.root_span, latencies, traced_ops,
                                         counts, first_traced_span)
        tracer.write(spec["trace_path"])
    return result


def layer_metrics(tracer, root, latencies, traced_ops, counts, first_pass):
    times = tracer.self_times()
    metrics = {}
    for metric, (name, own) in LAYER_TIMES.items():
        _, total_ns, self_ns = times.get(name, (0, 0, 0))
        metrics[metric] = (self_ns if own else total_ns) / traced_ops / 1e9
    for _, name, _, _, _, _, error in tracer.spans[first_pass[0]:first_pass[1]]:
        if name == "oracle.spectrum":
            counts["oracle.calls"] += 1
            counts["oracle.over_budget"] += error in BUDGET_ERRORS
    for name in COUNTS:
        metrics[name] = counts[name]
    root_calls, root_ns, _ = times[root]
    metrics["trace.overhead_share"] = root_ns / root_calls / statistics.fmean(latencies) - 1
    return metrics


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(equicycle.__file__).startswith(src + os.sep):
        raise SystemExit(f"equicycle imported from {equicycle.__file__}, not from {src}")
    result = run(spec)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))


if __name__ == "__main__":
    main(sys.argv[1])
