"""Suffix-array-style orderings of deterministic, input-consistent labeled graphs.

Public surface: the graph type and its structural operations, the tau
classification, the recursive min/max/minmax partition drivers, and the
brute-force oracle used to verify them.
"""

from .bench import bench_scaling
from .classify import compute_tau
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
from .oracle import (
    enumerate_small_graphs,
    oracle_minmax,
    oracle_partition,
    oracle_prefixes,
)
from .reduction import ExplorationRecord, ReducedGraph, build_reduced_graph

__all__ = [
    "EngineStats",
    "ExplorationRecord",
    "GraphFormatError",
    "InvalidGraphError",
    "LabeledGraph",
    "MinMaxKey",
    "MinMaxPartition",
    "Partition",
    "ReducedGraph",
    "ValidationReport",
    "bench_scaling",
    "build_reduced_graph",
    "compute_tau",
    "enumerate_small_graphs",
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
