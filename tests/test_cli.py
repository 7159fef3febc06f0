import contextlib
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicycle import complete, parse_edge_list, serialize_edge_list, wedge, cycle
from equicycle import cli
from equicycle.cli import main

from brute import is_simple_cycle
from test_golden import COMMANDS, FILE_COMMANDS, corpus, run

GOLDEN = pathlib.Path(__file__).parent / "golden"
PETERSEN = str(GOLDEN / "petersen.edges")


def write_graph(tmp_path, name, g):
    f = tmp_path / name
    f.write_text(serialize_edge_list(g))
    return str(f)


@pytest.fixture
def bowtie_file(tmp_path):
    return write_graph(tmp_path, "bowtie.edges", wedge(cycle(3), cycle(3)))


def test_check_json_bowtie(bowtie_file, capsys):
    assert main(["check", bowtie_file, "--json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        '{"status":"all_cycles_equal","r":3,'
        '"blocks":[{"shape":"cycle","r":3},{"shape":"cycle","r":3}]}'
    )


def test_check_text_distinct_with_witness(tmp_path, capsys):
    f = write_graph(tmp_path, "g.edges", wedge(cycle(3), cycle(4)))
    assert main(["check", f, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "two distinct cycle lengths exist" in out
    assert "cycle of length 3" in out and "cycle of length 4" in out


def test_check_expect_exit_codes(bowtie_file, tmp_path):
    assert main(["check", bowtie_file, "--expect", "equal"]) == 0
    assert main(["check", bowtie_file, "--expect", "distinct"]) == 1
    f = write_graph(tmp_path, "g.edges", wedge(cycle(3), cycle(4)))
    assert main(["check", f, "--expect", "equal"]) == 1
    assert main(["check", f, "--expect", "distinct"]) == 0


def test_check_witness_json(tmp_path, capsys):
    f = write_graph(tmp_path, "g.edges", wedge(cycle(3), cycle(4)))
    assert main(["check", f, "--witness", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "distinct_lengths"
    assert sorted(obj["witness"]["lengths"]) == [3, 4]


def test_check_acyclic(tmp_path, capsys):
    f = tmp_path / "tree.edges"
    f.write_text("0 1\n1 2\n")
    assert main(["check", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "acyclic"


def test_decompose_json(bowtie_file, capsys):
    assert main(["decompose", bowtie_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["bridges"] == []
    assert obj["cut_vertices"] == [0]
    assert len(obj["blocks"]) == 2


@pytest.fixture
def labeled_file(tmp_path):
    # triangle on 10 20 30, bridge 30-40, square on 40..70; no header, so
    # parse_edge_list remaps the labels to dense ids 0..6
    f = tmp_path / "labeled.edges"
    f.write_text("10 20\n20 30\n10 30\n30 40\n40 50\n50 60\n60 70\n40 70\n")
    return str(f)


def test_check_witness_text_uses_input_labels(labeled_file, capsys):
    assert main(["check", labeled_file, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "cycle of length 3: 10 20 30\n" in out
    assert "cycle of length 4: 40 50 60 70\n" in out


def test_check_witness_json_uses_input_labels(labeled_file, capsys):
    assert main(["check", labeled_file, "--witness", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["witness"] == {"cycle_a": [10, 20, 30], "cycle_b": [40, 50, 60, 70],
                              "lengths": [3, 4]}


def test_decompose_text_uses_input_labels(labeled_file, capsys):
    assert main(["decompose", labeled_file]) == 0
    assert capsys.readouterr().out == (
        "bridges: 30-40\n"
        "cut vertices: 30, 40\n"
        "block 0: vertices 10 20 30\n"
        "block 1: vertices 40 50 60 70\n"
    )


def test_decompose_json_uses_input_labels(labeled_file, capsys):
    assert main(["decompose", labeled_file, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "bridges": [[30, 40]],
        "cut_vertices": [30, 40],
        "blocks": [
            {"vertices": [10, 20, 30], "edges": [[10, 20], [10, 30], [20, 30]]},
            {"vertices": [40, 50, 60, 70],
             "edges": [[40, 50], [40, 70], [50, 60], [60, 70]]},
        ],
    }


def test_oracle_json_uses_input_labels(labeled_file, capsys):
    assert main(["oracle", labeled_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["witnesses"] == {"3": [10, 20, 30], "4": [40, 50, 60, 70]}


def test_oracle_json(bowtie_file, capsys):
    assert main(["oracle", bowtie_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["girth"] == 3 and obj["circumference"] == 3
    assert obj["lengths"] == [3]
    assert len(obj["witnesses"]["3"]) == 3


def test_bound_text(capsys):
    assert main(["bound", "--n", "16"]) == 0
    assert capsys.readouterr().out.strip() == "2n-4 bound: 28"
    assert main(["bound", "--n", "16", "--r", "6"]) == 0
    assert "21" in capsys.readouterr().out


def test_bound_json(capsys):
    assert main(["bound", "--n", "16", "--r", "6", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"n": 16, "r": 6, "bound": 21, "extremal": {"p": 6, "c": 0}}


def test_certify(capsys):
    assert main(["certify", "--n", "16", "--m", "29"]) == 0
    out = capsys.readouterr().out
    assert "29 > 28 (premises: simple graph)" in out
    assert main(["certify", "--n", "16", "--m", "22", "--r", "6"]) == 0
    assert "22 > 21 (premises: simple graph, has a cycle of length 6)" in (
        capsys.readouterr().out)
    assert main(["certify", "--n", "16", "--m", "22", "--r", "6", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "must_contain_distinct_lengths"
    assert obj["cited_bound"] == 21
    assert obj["premises"] == ["simple graph", "has a cycle of length 6"]
    assert main(["certify", "--n", "16", "--m", "29", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["premises"] == ["simple graph"]


def test_gen_book(capsys):
    assert main(["gen", "book", "--n", "2", "--l", "4", "--p", "4"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.vertex_count == 7 and g.edge_count == 10


def test_gen_output_file(tmp_path):
    out = tmp_path / "c5.edges"
    assert main(["gen", "cycle", "--m", "5", "-o", str(out)]) == 0
    assert parse_edge_list(out.read_text()) == cycle(5)


def test_gen_wedge(tmp_path, capsys):
    f1 = write_graph(tmp_path, "a.edges", cycle(3))
    f2 = write_graph(tmp_path, "b.edges", cycle(3))
    assert main(["gen", "wedge", f1, f2]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.vertex_count == 5 and g.edge_count == 6


def test_gen_extremal(capsys):
    assert main(["gen", "extremal", "--n", "16", "--r", "6"]) == 0
    g = parse_edge_list(capsys.readouterr().out)
    assert g.vertex_count == 16 and g.edge_count == 21


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_text("0 0\n")
    assert main(["check", str(f)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["check"], ["decompose"], ["oracle"], ["gen", "wedge"]])
def test_non_utf8_input_exit_2(tmp_path, capsys, verb):
    # a byte-order mark before the text leaves the line count as it is
    f = tmp_path / "latin1.edges"
    for mark in (b"", b"\xef\xbb\xbf"):
        f.write_bytes(mark + b"0 1\n\xff 2\n")
        assert main([*verb, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: not UTF-8 text\n" and captured.out == ""


@pytest.mark.parametrize("name", ["c20_two_chords.edges", "labelled_c3_bridge_c4.edges",
                                  "labelled_theta.edges"])
@pytest.mark.parametrize("verb", [["check", "--witness"], ["decompose"]])
def test_byte_order_mark_is_skipped(tmp_path, capsys, name, verb):
    # a UTF-8 byte-order mark before a header, an edge line or a comment
    # changes nothing in the output
    plain = GOLDEN / name
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = []
    for f in (plain, marked):
        assert main([verb[0], str(f), *verb[1:]]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].out and not outs[0].err


def test_huge_header_exit_2_under_memory_cap(tmp_path):
    # a `vertices N` header far beyond the file asks for N neighbour
    # lists; in a child capped at 256 MiB of address space, main names
    # the failure in one error line and exits 2, with no traceback
    f = tmp_path / "huge.edges"
    f.write_text("vertices 99999999999999999999999\n0 1\n")
    cap = 256 << 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from equicycle.cli import main\n"
            "sys.exit(main(['check', sys.argv[1]]))\n")
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(f)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_missing_file_exit_2(capsys):
    assert main(["check", "/nonexistent/g.edges"]) == 2


def test_domain_error_exit_2(capsys):
    assert main(["gen", "cycle", "--m", "2"]) == 2
    assert main(["bound", "--n", "3"]) == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["decompose", "k4.edges", "--expect", "equal"],
    ["oracle", "k4.edges", "--expect", "equal"],
    ["bound", "--n", "9", "--expect", "equal"],
    ["certify", "--n", "9", "--m", "14", "--expect", "equal"],
    ["gen", "cycle", "--m", "5", "--json"],
], ids=lambda argv: argv[0])
def test_options_stay_on_their_verbs(capsys, argv):
    # one runner serves every verb but gen, yet only check takes
    # --expect, and gen takes no --json
    argv = [str(GOLDEN / a) if a.endswith(".edges") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = "--json" if argv[0] == "gen" else "--expect equal"
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["check", "k4.edges", "--json", "--witness"], 0),
    (["check", "k4.edges", "--witness", "--expect", "equal"], 1),
    (["decompose", "k4.edges"], 0),
    (["oracle", "k4.edges", "--json"], 0),
    (["bound", "--n", "9"], 0),
    (["certify", "--n", "9", "--m", "15"], 0),
    (["gen", "cycle", "--m", "5"], 0),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_closed_stdout_is_no_error(argv, code):
    # the read end is closed before the child writes: the verb prints no
    # error line, nothing at interpreter exit, and keeps its exit code
    argv = [str(GOLDEN / a) if a.endswith(".edges") else a for a in argv]
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "equicycle.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.parametrize("verb", ["oracle"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_vertices_must_be_positive(bowtie_file, capsys, verb, value):
    with pytest.raises(SystemExit) as exc:
        main([verb, bowtie_file, "--max-vertices", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-vertices" in err and "positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "3"])
def test_check_has_no_max_vertices(bowtie_file, capsys, value):
    # witness cycles need no search budget, so check takes no size limit
    with pytest.raises(SystemExit) as exc:
        main(["check", bowtie_file, "--witness", "--max-vertices", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --max-vertices" in err and "Traceback" not in err


def assert_exact_witness(g, obj):
    """obj is check --json --witness output for g, whose ids are dense."""
    assert obj["status"] == "distinct_lengths"
    a, b = obj["witness"]["cycle_a"], obj["witness"]["cycle_b"]
    assert obj["witness"]["lengths"] == [len(a), len(b)] and len(a) < len(b)
    assert is_simple_cycle(g, a) and is_simple_cycle(g, b)


def test_check_witness_exact_on_petersen(capsys):
    # the oracle's state guard once left this rejection without witnesses
    assert main(["check", PETERSEN, "--witness", "--json", "--expect", "distinct"]) == 0
    with open(PETERSEN, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    assert_exact_witness(g, json.loads(capsys.readouterr().out))


def test_check_witness_exact_on_k14(tmp_path, capsys):
    f = write_graph(tmp_path, "k14.edges", complete(14))
    assert main(["check", f, "--witness", "--json"]) == 0
    assert_exact_witness(complete(14), json.loads(capsys.readouterr().out))


@st.composite
def mutated_golden_files(draw):
    """A golden corpus file, truncated or with one byte replaced,
    inserted or deleted; the byte is often one the parser treats
    specially."""
    data = draw(st.sampled_from(sorted(GOLDEN.glob("*.edges")))).read_bytes()
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "delete"]))
    i = draw(st.integers(0, max(len(data) - 1, 0)))
    byte = bytes([draw(st.one_of(st.sampled_from(b"0123456789 \n\r\t#-v"), st.integers(0, 255)))])
    if kind == "truncate":
        return data[:i]
    if kind == "insert":
        return data[:i] + byte + data[i:]
    return data[:i] + (byte if kind == "replace" else b"") + data[i + 1:]


@settings(max_examples=400, deadline=None)
@given(mutated_golden_files())
def test_exit_code_contract_on_mutated_golden_files(tmp_path_factory, data):
    f = tmp_path_factory.mktemp("mutated") / "g.edges"
    f.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(f), "--witness", "--json"])  # any exception fails here
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
        return
    assert err.getvalue() == ""
    obj = json.loads(out.getvalue())
    if obj["status"] == "distinct_lengths":
        # every rejection carries two cycles of the input, shorter first
        g = parse_edge_list(data.decode("utf-8"))
        index = {label: v for v, label in enumerate(g.labels or range(g.vertex_count))}
        a, b = ([index[x] for x in c] for c in (obj["witness"]["cycle_a"], obj["witness"]["cycle_b"]))
        assert len(a) < len(b) and is_simple_cycle(g, a) and is_simple_cycle(g, b)


def test_check_renders_after_the_graph_is_freed(tmp_path, monkeypatch, capsys):
    """check --json calls json.dumps with the parsed graph and the
    decision freed: the memory traced when rendering starts is below the
    graph's own size.  The file has no header and 4,000 blocks, 5-cycles
    in a chain, each sharing one vertex with the next (20,000 edges)."""
    blocks, pairs = 4000, []
    for b in range(blocks):
        ring = list(range(4 * b, 4 * b + 5))
        pairs += zip(ring, ring[1:] + ring[:1])
    text = "".join(f"{10**9 + 7 * u} {10**9 + 7 * v}\n" for u, v in pairs)
    f = tmp_path / "chain.edges"
    f.write_text(text)
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        graph_size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 5 * blocks and g.labels
    del g, text
    at_render = []

    def dumps(obj, **kwargs):
        at_render.append(tracemalloc.get_traced_memory()[0])
        return real_dumps(obj, **kwargs)

    real_dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps", dumps)
    tracemalloc.start()
    try:
        assert main(["check", str(f), "--json"]) == 0
    finally:
        tracemalloc.stop()
    obj = json.loads(capsys.readouterr().out)
    assert obj["blocks"] == [{"shape": "cycle", "r": 5}] * blocks
    assert len(at_render) == 1 and at_render[0] < graph_size


def test_byte_identical_runs(bowtie_file, capsys):
    main(["check", bowtie_file, "--json"])
    first = capsys.readouterr().out
    main(["check", bowtie_file, "--json"])
    assert capsys.readouterr().out == first


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the cyclic collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["exit_0", "exit_2", "raises"])
def test_main_leaves_collector_as_found(monkeypatch, collecting, outcome):
    def unexpected(*args, **kwargs):
        raise RuntimeError("unexpected")

    if outcome == "raises":
        monkeypatch.setattr(cli, "decide", unexpected)
    name = "bad_self_loop.edges" if outcome == "exit_2" else "k4.edges"
    argv = ["check", str(GOLDEN / name), "--witness"]
    with collector(collecting):
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="unexpected"):
                main(argv)
        else:
            assert main(argv) == (2 if outcome == "exit_2" else 0)
        assert gc.isenabled() is collecting


def test_verbs_leave_no_cyclic_garbage():
    # main() pauses the cyclic collector during a verb, which is safe
    # because no verb makes reference cycles: once one-time state (the
    # parser, lazy imports) exists, no golden command line, exit 2
    # included, leaves anything for the collector
    lines = [[verb, p.name, *flags] for p in corpus() for verb, *flags in FILE_COMMANDS]
    lines += [line.split() for line in COMMANDS]
    for argv in lines:
        run(argv)
    gc.collect()
    with collector(False):
        gc.freeze()  # each collect below then scans only what the verb left
        try:
            for argv in lines:
                run(argv)
                assert gc.collect() == 0, " ".join(argv)
        finally:
            gc.unfreeze()
        assert gc.collect() == 0  # nor a cycle through older objects
