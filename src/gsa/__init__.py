"""Suffix-array-style orderings of deterministic, input-consistent labeled graphs.

Public surface: the graph type and its structural operations, the
recursive min/max/minmax partition drivers, and the brute-force oracle used
to verify them. The tau classification is ``gsa.classify.compute_tau``.
"""

from .bench import bench_scaling
from .driver import (
    EngineStats,
    MinMaxKey,
    MinMaxPartition,
    max_partition,
    min_partition,
    minmax_partition,
)
from .generators import gen
from .graph import (
    GraphFormatError,
    InvalidGraphError,
    LabeledGraph,
    ValidationReport,
    format_graph,
    from_dfa,
    make_graph,
    parse_graph,
    transpose_alphabet,
    validate,
)
from .merge import Partition
from .oracle import oracle_minmax, oracle_partition, oracle_prefixes

__all__ = [
    "EngineStats",
    "GraphFormatError",
    "InvalidGraphError",
    "LabeledGraph",
    "MinMaxKey",
    "MinMaxPartition",
    "Partition",
    "ValidationReport",
    "bench_scaling",
    "format_graph",
    "from_dfa",
    "gen",
    "make_graph",
    "max_partition",
    "min_partition",
    "minmax_partition",
    "oracle_minmax",
    "oracle_partition",
    "oracle_prefixes",
    "parse_graph",
    "transpose_alphabet",
    "validate",
]

__version__ = "0.1.0"
