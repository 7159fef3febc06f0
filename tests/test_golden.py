"""CLI outputs on a fixed corpus stay byte-identical.

Each file in tests/golden/ is run through every command of
FILE_COMMANDS.  Most files use a `vertices N` header or the ids
0..n-1; the `labelled_*` files have sparse labels and no header, so
their output shows the input labels; the `bad_*` files are malformed
and give exit 2 with an `error:` line.  COMMANDS are the invocations
that read no file: grids of `bound` and `certify`, and every `gen`
family with one error case each.  An argument ending in `.edges`
names a corpus file.  Argparse usage and `--help` text are left out,
because they differ across Python versions.  After a deliberate output
change, rewrite the expected outputs with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
import pathlib

import pytest

from equicycle.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"
FILE_COMMANDS = (
    ("check",),
    ("check", "--json"),
    ("check", "--json", "--witness"),
    ("check", "--witness"),
    ("check", "--expect", "equal"),
    ("decompose",),
    ("decompose", "--json"),
    ("oracle",),
    ("oracle", "--json"),
    ("oracle", "--max-vertices", "3"),
)
COMMANDS = (
    *(f"bound --n {n}{r}{j}" for n, r, j in itertools.product(
        (3, 4, 9, 16), ("", " --r 2", " --r 3", " --r 4", " --r 5", " --r 6", " --r 10"),
        ("", " --json"))),
    *(f"certify --n {n} --m {m}{r}{j}" for n, m, r, j in itertools.product(
        (3, 9, 16), (-1, 14, 15, 29), ("", " --r 4", " --r 6", " --r 7"), ("", " --json"))),
    "gen cycle --m 5", "gen cycle --m 2",
    "gen path --m 3", "gen path --m 0", "gen path --m=-1",
    "gen complete --m 4", "gen complete --m 0",
    "gen bipartite --a 2 --b 3", "gen bipartite --a 0 --b 3",
    "gen book --n 2 --l 4 --p 3", "gen book --n 1 --l 6 --p 2", "gen book --n 3 --l 4 --p 2",
    "gen extremal --n 16 --r 6", "gen extremal --n 11 --r 5", "gen extremal --n 5 --r 6",
    "gen wedge c3.edges c6.edges", "gen wedge labelled_k4.edges",
    "gen wedge c3.edges bad_self_loop.edges",
)


def run(argv):
    """{exit, stdout, stderr} of one CLI call; `.edges` arguments are
    corpus files."""
    argv = [str(GOLDEN / a) if a.endswith(".edges") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_corpus_file(path):
    """{command line: {exit, stdout, stderr}} for one corpus file."""
    return {" ".join((verb, *flags)): run([verb, path.name, *flags])
            for verb, *flags in FILE_COMMANDS}


def run_commands():
    return {line: run(line.split()) for line in COMMANDS}


def corpus():
    return sorted(GOLDEN.glob("*.edges"))


def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", corpus(), ids=lambda p: p.stem)
def test_cli_output_matches_golden(path):
    assert run_corpus_file(path) == expected()["files"][path.name]


def test_commands_without_file_match_golden():
    assert run_commands() == expected()["commands"]


def test_golden_covers_whole_corpus():
    golden = expected()
    assert sorted(golden["files"]) == [p.name for p in corpus()]
    assert list(golden["commands"]) == list(COMMANDS)


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps({
        "files": {p.name: run_corpus_file(p) for p in corpus()},
        "commands": run_commands(),
    }, indent=1) + "\n", encoding="utf-8")
