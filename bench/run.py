"""equicycle benchmark: one command, four seeded workloads, checked outputs.

    python3 bench/run.py --workload big_accept --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; equicycle is imported from its
`src` directory, so nothing needs installing.  `--workload all` runs the
four workloads in turn.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
lines before it are a readable report and a JSON line with the details
(input fingerprint, environment, sample counts, witness share).
See bench/README.md for what each metric means and which layer moves it.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_run")
SETUP_SAMPLES = 6  # taken both before and after the workload, to span the run
RUN_LIMIT_S = 170  # the whole run must end well within 180 s

TINY_GRAPHS = 20_000
SMALL_GRAPHS = 2_500



def prepare_big_accept(seed, workdir):
    text, answer, n, m = gen.big_accept(seed)
    path = write(workdir, "graph.edges", text)

    def problems(reference):
        return [output_problems(ref, lambda obj: check.big_accept_problems(obj, answer))
                for ref in reference]

    return "cli", path, gen.fingerprint(text, 1, n, m), problems


def prepare_big_reject(seed, workdir):
    text, answer, edges, n = gen.big_reject(seed)
    path = write(workdir, "graph.edges", text)

    def problems(reference):
        return [output_problems(ref, lambda obj: check.big_reject_problems(obj, answer, edges))
                for ref in reference]

    return "cli", path, gen.fingerprint(text, 1, n, len(edges)), problems


def output_problems(ref, check_json):
    rc, stdout = ref
    if rc != 0:
        return [f"exit code {rc}"]
    obj = json_or_none(stdout)
    return ["output is not a JSON object"] if obj is None else check_json(obj)


def json_or_none(text):
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def prepare_stream(graphs, workdir):
    text = gen.stream_text(graphs)
    path = write(workdir, "stream.json", text)
    fp = gen.fingerprint(text, len(graphs), sum(n for n, _ in graphs),
                         sum(len(e) for _, e in graphs))

    def problems(reference):
        return [check.stream_problems(ref, check.expected_verdict(n, edges), check.edge_set(edges))
                for ref, (n, edges) in zip(reference, graphs)]

    return "stream", path, fp, problems


WORKLOADS = {
    "big_accept": prepare_big_accept,
    "big_reject": prepare_big_reject,
    "tiny_decide": lambda seed, workdir: prepare_stream(gen.tiny_stream(seed, TINY_GRAPHS), workdir),
    "small_witness": lambda seed, workdir: prepare_stream(gen.small_stream(seed, SMALL_GRAPHS), workdir),
}
WITNESSES = {"small_witness"}  # stream workloads that ask decide for witnesses


def write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples):
    """Wall times of a fresh interpreter importing equicycle.cli."""
    argv = [sys.executable, "-c", "import equicycle.cli"]
    env = child_env()
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def witness_share(workload, reference):
    """(rejections carrying two exact witness cycles, rejections), or None
    where the workload does not ask for witnesses."""
    if workload.startswith("big_"):
        objs = [json_or_none(out) or {} for _, out in reference]
        rejected = [o for o in objs if o.get("status") == "distinct_lengths"]
        return sum("witness" in o for o in rejected), len(rejected)
    if workload in WITNESSES:
        rejected = [r for r in reference if r[0] == "distinct_lengths"]
        return sum(r[4] == "exact" for r in rejected), len(rejected)
    return None


def run_workload(workload, seed, seconds, trace):
    started = time.monotonic()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        kind, path, fingerprint, problems = WORKLOADS[workload](seed, workdir)
        # the unmeasured first import writes the bytecode cache
        setup = [] if trace else measure_setup(1 + SETUP_SAMPLES)[1:]
        spec = {
            "kind": kind, "input": path, "witnesses": workload in WITNESSES,
            "seconds": seconds, "trace": bool(trace), "src": SRC,
            "out": os.path.join(workdir, "result.json"),
            "trace_path": os.path.join(WORK_ROOT, f"trace-{workload}.json.gz"),
        }
        spec_path = write(workdir, "spec.json", json.dumps(spec))
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "measure.py"), spec_path],
                       env=child_env(), check=True,
                       timeout=RUN_LIMIT_S - (time.monotonic() - started))
        with open(spec["out"], encoding="utf-8") as fh:
            raw = json.load(fh)
        if not trace:
            setup += measure_setup(SETUP_SAMPLES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = raw["reference"]
    bad = problems(reference)
    failed = sum(raw["calls"][i] if bad[i] else raw["mismatches"][i] for i in range(len(bad)))
    attempted = sum(raw["calls"])
    latency = raw["latency_ns"]
    if trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "graph_ref_p50": raw["graph_ref_p50"],
            "graphs_per_ref": raw["graphs_per_ref"],
            "peak_rss_mb": raw["rss_kb"] / 1024,
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    share = witness_share(workload, reference)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "input": fingerprint,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "gc": raw["gc"],
            "equicycle": os.path.relpath(raw["equicycle_file"], ROOT),
            "loop": "closed, one caller, one thread",
        },
        "samples": {"graph_ref_p50": raw["passes"], "graphs_per_ref": raw["passes"],
                    "setup_s": len(setup)},
        "reference_kernel_ms": raw["kernel_ns_p50"] / 1e6,
        "all_passes": {
            "graphs": latency["n"],
            "graph_us_p50": latency["p50"] / 1e3,
            "graph_us_p99": latency["p99"] / 1e3 if latency["p99"] is not None else None,
            "graphs_per_s": raw["plain_ops"] / (raw["plain_ns"] / 1e9),
        },
        "failed_share": [failed, attempted],
        "witness_exact_share": share,
        "problems": [p for ps in bad for p in ps][:5],
    }
    lines = [f"workload {workload} seed {seed} trace {trace}",
             f"input sha256 {fingerprint['sha256'][:16]} graphs {fingerprint['graphs']} "
             f"vertices {fingerprint['vertices']} edges {fingerprint['edges']}"]
    for name, value in metrics.items():
        n = details["samples"].get(name)
        how = "" if trace or not n else f" (median of {n})" if name == "setup_s" else f" (median of {n} passes)"
        lines.append(f"{name} {value:.6g} {units[name]}{how}")
    every = details["all_passes"]
    lines.append(f"raw: graph_us_p50 {every['graph_us_p50']:.6g} us, graphs_per_s "
                 f"{every['graphs_per_s']:.6g} 1/s over {every['graphs']} graphs; "
                 f"reference kernel {details['reference_kernel_ms']:.4g} ms")
    if latency["p99"] is not None:
        lines.append(f"graph_us_p99 {latency['p99'] / 1e3:.6g} us (n={latency['n']})")
    lines.append(f"failed_share {failed}/{attempted}")
    if share is not None:
        lines.append(f"witness_exact_share {share[0]}/{share[1]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return lines, details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="equicycle benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "equicycle", "__init__.py")):
        print(f"error: no equicycle sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    check.self_test()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, details, result = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(details, separators=(",", ":")))
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
