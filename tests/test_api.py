"""The public names that the benchmark harness and README's library tour
use.  A name dropped from the package fails here, on every Python
version, and not as a benchmark metric that silently reads zero or a
tour that no longer runs."""

import ast
import importlib
from pathlib import Path

from equicycle import AllCyclesEqual, BlockDecomposition, DistinctLengths, decide

ROOT = Path(__file__).resolve().parent.parent
MEASURE = ROOT / "bench" / "measure.py"

# globals the harness still patches though recognition no longer has
# them, so that their metrics read 0; the harness's upkeep removes them
DEAD_PATCHES = {("recognition", "connected_components"), ("recognition", "cycle_spectrum")}


def _measure_tree():
    return ast.parse(MEASURE.read_text(encoding="utf-8"))


def test_benchmark_imports_exist():
    names = [alias.name for node in ast.walk(_measure_tree())
             if isinstance(node, ast.ImportFrom) and node.module == "equicycle"
             for alias in node.names]
    assert {"decide", "decompose", "extract_witnesses", "parse_edge_list", "cli"} <= set(names)
    missing = []
    for name in names:
        try:
            exec(f"from equicycle import {name}", {})
        except ImportError:
            missing.append(name)
    assert not missing


def test_benchmark_patched_globals_exist():
    # Tracer.patched leaves a module alone when it lacks the global, so a
    # name dropped here would zero a metric without failing anything
    patched = {(call.args[0].id, call.args[1].value) for call in ast.walk(_measure_tree())
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "patched"}
    assert {("cli", "parse_edge_list"), ("cli", "decide")} <= patched
    missing = {(module, attr) for module, attr in patched
               if not hasattr(importlib.import_module(f"equicycle.{module}"), attr)}
    assert missing <= DEAD_PATCHES


def _tour():
    """README's library tour run statement by statement: its namespace,
    and the value of each bare expression by its source text."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt)] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, values


def test_readme_library_tour():
    namespace, values = _tour()
    d = namespace["d"]
    assert isinstance(d, AllCyclesEqual) and d.r == 4
    assert isinstance(values["decide(h)"], DistinctLengths)
    w = values["decide(h, witnesses=True)"]
    assert [len(w.witness_a), len(w.witness_b)] == [3, 4]
    assert isinstance(values["decompose(g)"], BlockDecomposition)
    assert values["cycle_spectrum(h).lengths"] == (3, 4)
    assert values["max_edges(16, 6).bound"] == 21
    g = values["extremal(16, 6)"]
    assert (g.vertex_count, g.edge_count) == (16, 21) and decide(g).r == 6
    assert values["certify_distinct(16, 22, 6)"].verdict == "must_contain_distinct_lengths"
