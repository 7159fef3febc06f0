"""Decide whether a finite simple graph has all cycles of equal length,
with sharp edge bounds, extremal constructions, and certificates."""

from .bounds import (
    BoundReport,
    Certificate,
    certify_distinct,
    certify_graph,
    extremal,
    max_edges,
    max_edges_any_r,
)
from .decomposition import (
    Block,
    BlockDecomposition,
    bridges,
    decompose,
)
from .errors import (
    BadParamsError,
    BadRangeError,
    BadVertexError,
    BudgetExceededError,
    DuplicateEdgeError,
    GraphError,
    NotABlockError,
    NotRejectedError,
    OverBudgetError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownEdgeError,
)
from .generators import (
    BookParams,
    WedgeSpec,
    book,
    complete,
    complete_bipartite,
    cycle,
    path,
    wedge,
)
from .graph import (
    Graph,
    build,
    degree,
    parse_edge_list,
    serialize_edge_list,
    subdivide,
)
from .oracle import CycleReport, SearchBudget, cycle_spectrum, girth
from .recognition import (
    Acyclic,
    AllCyclesEqual,
    BookShape,
    CycleShape,
    DistinctLengths,
    OtherShape,
    classify_block,
    decide,
    extract_witnesses,
)

__version__ = "0.1.0"
