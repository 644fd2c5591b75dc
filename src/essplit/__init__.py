"""Binary matroid splitting toolkit.

Exact GF(2) linear algebra, a brute-force matroid oracle, the split
construction with closed-form predictions for circuits, ranks, closures
and flats, and a graph-level vertex split with an equivalence check.
"""

from . import errors
from .gf2 import (
    GF2Matrix,
    format_matrix,
    parse_matrix,
    rank,
)
from .graphs import (
    LabeledGraph,
    LineSplitSpec,
    format_graph,
    incidence_matrix,
    n_line_split,
    parse_graph,
    verify_equivalence,
)
from .matroid import BinaryMatroid
from .splitting import (
    CLOSURE_CASE_IDS,
    CLOSURE_RULE_CASE_IDS,
    CircuitFamily,
    ClosureCaseReport,
    SplitContext,
    build_split_matrix,
    closure_rule,
    find_ox_subcircuit,
    predict_circuits,
    predict_closure,
    predict_is_flat,
    predict_rank,
    split_matroid,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatroid",
    "CLOSURE_CASE_IDS",
    "CLOSURE_RULE_CASE_IDS",
    "CircuitFamily",
    "ClosureCaseReport",
    "GF2Matrix",
    "LabeledGraph",
    "LineSplitSpec",
    "SplitContext",
    "build_split_matrix",
    "closure_rule",
    "errors",
    "find_ox_subcircuit",
    "format_graph",
    "format_matrix",
    "incidence_matrix",
    "n_line_split",
    "parse_graph",
    "parse_matrix",
    "predict_circuits",
    "predict_closure",
    "predict_is_flat",
    "predict_rank",
    "rank",
    "split_matroid",
    "verify_equivalence",
]
