"""The result records: what importing them costs, and how they read,
compare and refuse assignment.  Each record is a named tuple whose
repr, immutability and hash match the frozen dataclass form."""

import subprocess
import sys
from pathlib import Path

import pytest

from equicycle import (
    Acyclic,
    AllCyclesEqual,
    BookShape,
    BoundReport,
    Certificate,
    CycleReport,
    CycleShape,
    DistinctLengths,
    OtherShape,
    SearchBudget,
)
from equicycle.decomposition import Block, BlockDecomposition

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses():
    # -S keeps the host's site hooks, which may import anything, out of
    # the verdict; only equicycle.cli's own imports are counted
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import equicycle.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# (factory, repr, field names): the reprs are those the frozen dataclass
# records printed, defaults included
RECORDS = [
    (lambda: CycleShape(4), "CycleShape(r=4)", ("r",)),
    (lambda: BookShape(3, 2), "BookShape(k=3, p=2)", ("k", "p")),
    (lambda: OtherShape("degree-profile"), "OtherShape(reason='degree-profile')", ("reason",)),
    (lambda: AllCyclesEqual(4, (CycleShape(4),)),
     "AllCyclesEqual(r=4, shapes=(CycleShape(r=4),), notes=())", ("r", "shapes", "notes")),
    (lambda: DistinctLengths(),
     "DistinctLengths(witness_a=None, witness_b=None, witness_status='decision-only', shapes=(), notes=())",
     ("witness_a", "witness_b", "witness_status", "shapes", "notes")),
    (lambda: Acyclic(), "Acyclic(notes=())", ("notes",)),
    (lambda: Block((0, 1, 2), ((0, 1), (0, 2), (1, 2))),
     "Block(vertices=(0, 1, 2), edges=((0, 1), (0, 2), (1, 2)))", ("vertices", "edges")),
    (lambda: BlockDecomposition((), (), (), 1),
     "BlockDecomposition(bridges=(), cut_vertices=(), cycle_blocks=(), component_count=1)",
     ("bridges", "cut_vertices", "cycle_blocks", "component_count")),
    (lambda: BoundReport(16, None, 28), "BoundReport(n=16, r=None, bound=28, p=None, c=None)",
     ("n", "r", "bound", "p", "c")),
    (lambda: Certificate(16, 29, None, "must_contain_distinct_lengths", 28, "2n-4", ("simple",)),
     "Certificate(n=16, m=29, r=None, verdict='must_contain_distinct_lengths', cited_bound=28,"
     " rule='2n-4', premises=('simple',))",
     ("n", "m", "r", "verdict", "cited_bound", "rule", "premises")),
    (lambda: SearchBudget(), "SearchBudget(max_vertices=14, max_visited_states=5000000)",
     ("max_vertices", "max_visited_states")),
    (lambda: CycleReport(3, 3, (3,), {3: (0, 1, 2)}),
     "CycleReport(girth=3, circumference=3, lengths=(3,), witnesses={3: (0, 1, 2)})",
     ("girth", "circumference", "lengths", "witnesses")),
]


def _hash(record):
    # a record holding a dict (CycleReport) is unhashable, as it was
    try:
        return hash(record)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("make, text, fields", RECORDS, ids=[r[1].split("(", 1)[0] for r in RECORDS])
def test_record_repr_immutability_hash_and_truth(make, text, fields):
    record = make()
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    values = tuple(getattr(record, f) for f in fields)
    assert _hash(record) == _hash(make()) == _hash(values)
    assert record


def test_derived_r():
    assert BookShape(3, 2).r == 6
    assert OtherShape("x").r is None
