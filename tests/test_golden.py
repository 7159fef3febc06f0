"""CLI outputs on a fixed corpus of small graphs stay byte-identical.

Every file in tests/golden/ uses a `vertices N` header or the ids
0..n-1, so input labels never come into play.  After a deliberate
output change, rewrite the expected outputs with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from equicycle.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"
COMMANDS = (
    ("check", "--json", "--witness"),
    ("check", "--witness"),
    ("decompose",),
    ("decompose", "--json"),
    ("oracle", "--json"),
)


def run_corpus_file(path):
    """{command line: {exit, stdout, stderr}} for one corpus file."""
    outputs = {}
    for verb, *flags in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, str(path), *flags])
        outputs[" ".join((verb, *flags))] = {
            "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return outputs


def corpus():
    return sorted(GOLDEN.glob("*.edges"))


@pytest.mark.parametrize("path", corpus(), ids=lambda p: p.stem)
def test_cli_output_matches_golden(path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert run_corpus_file(path) == expected[path.name]


def test_golden_covers_whole_corpus():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert sorted(expected) == [p.name for p in corpus()]


if __name__ == "__main__":
    EXPECTED.write_text(
        json.dumps({p.name: run_corpus_file(p) for p in corpus()}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
