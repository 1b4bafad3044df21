"""Recursive computation of min-, max-, and joint min/max-partitions.

Every entry point runs the same engine: classify the nodes, pick the smaller
of the tau=1 / tau=3 classes, trim, explore each class node, recurse on the
reduced graph, and merge the recursed partition back. Each node carries a
comparison kind (ordered by its minimum or by its maximum string); the joint
partition runs the engine once on two disjoint copies of the graph, the
second copy tagged max, sharing one alphabet and one merge schedule.

The recursed class never exceeds half the nodes, so the recursion depth is
O(log n) and total work is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .classify import compute_tau
from .graph import LabeledGraph, make_graph, require_valid, transpose_alphabet, trim_for_kinds
from .merge import (
    KIND_MAX,
    KIND_MIN,
    Partition,
    merge_partitions,
    partition_from_groups,
    _run_heights,
)
from .reduction import (
    ExplorationRecord,
    ExplorationScratch,
    ReducedGraph,
    build_reduced_graph,
    explore,
)


@dataclass(frozen=True)
class MinMaxKey:
    node: int
    kind: Literal["min", "max"]


@dataclass(frozen=True)
class MinMaxPartition:
    """Ordered partition of (node, kind) keys by string value."""

    groups: tuple[tuple[MinMaxKey, ...], ...]

    def restricted(self, kind: str) -> Partition:
        """Project onto one kind, dropping groups that become empty."""
        kept = []
        for grp in self.groups:
            nodes = [k.node for k in grp if k.kind == kind]
            if nodes:
                kept.append(nodes)
        return partition_from_groups(kept)


@dataclass
class LevelStats:
    n: int
    n1: int
    n3: int
    direction: int
    reduced_n: int


@dataclass
class EngineStats:
    """Instrumentation for the complexity and recursion-size assertions."""

    levels: list[LevelStats] = field(default_factory=list)
    peak_exploration_edges: int = 0

    @property
    def depth(self) -> int:
        return len(self.levels)


def _tau_for_kinds(g: LabeledGraph, kinds: list[int]) -> list[int]:
    """Per-node tau in the node's own comparison sense.

    For max-kind nodes, tau of the maximum equals the mirrored tau of the
    minimum under the transposed character order (1 and 3 swap).
    """
    tau: list[int] = [0] * g.n
    if any(k == KIND_MIN for k in kinds):
        tmin = compute_tau(g)
        for u, k in enumerate(kinds):
            if k == KIND_MIN:
                tau[u] = tmin[u]
    if any(k == KIND_MAX for k in kinds):
        tmax = compute_tau(transpose_alphabet(g))
        for u, k in enumerate(kinds):
            if k == KIND_MAX:
                tau[u] = 4 - tmax[u] if tmax[u] != 2 else 2
    return tau


def _level(
    g: LabeledGraph, kinds: list[int]
) -> tuple[
    list[int], int, int, int, LabeledGraph, list[ExplorationRecord], ReducedGraph | None
]:
    """One classify-trim-explore-reduce step of the recursion.

    Returns (tau, n1, n3, direction, trimmed graph, exploration records,
    reduced graph or None when the class recursed on is empty).
    """
    n = g.n
    tau = _tau_for_kinds(g, kinds)
    n1 = tau.count(1)
    n3 = tau.count(3)
    direction = 3 if n3 == 0 or (n1 > 0 and n3 <= n1) else 1
    gt = trim_for_kinds(g, tau, kinds)
    class_nodes = [u for u in range(n) if tau[u] == direction]
    if not class_nodes:
        return tau, n1, n3, direction, gt, [], None
    if min(n1, n3) > 0 and len(class_nodes) > n // 2:
        raise AssertionError(f"recursed class has {len(class_nodes)} of {n} nodes")
    scratch = ExplorationScratch(n)
    records = [
        explore(gt, tau, u, direction, maximize=kinds[u] == KIND_MAX, scratch=scratch)
        for u in class_nodes
    ]
    rg = build_reduced_graph(gt, records, direction)
    return tau, n1, n3, direction, gt, records, rg


def _engine(
    g: LabeledGraph, kinds: list[int], stats: EngineStats | None
) -> list[list[int]]:
    n = g.n
    if n == 0:
        return []
    if n == 1:
        return [[0]]
    tau, n1, n3, direction, gt, records, rg = _level(g, kinds)
    if rg is None:
        class_groups: list[list[int]] = []
        reduced_n = 0
    else:
        sub_kinds = [kinds[p] for p in rg.node_map]
        sub_groups = _engine(rg.graph, sub_kinds, stats)
        class_groups = [[rg.node_map[i] for i in grp] for grp in sub_groups]
        reduced_n = rg.graph.n

    if stats is not None:
        for r in records:
            if r.edges_scanned > stats.peak_exploration_edges:
                stats.peak_exploration_edges = r.edges_scanned
        stats.levels.append(LevelStats(n, n1, n3, direction, reduced_n))

    fill = 1 if direction == 3 else 3
    psi_kind = KIND_MAX if direction == 3 else KIND_MIN
    psi = None
    if any(tau[u] == fill and kinds[u] == psi_kind for u in range(n)):
        active = [tau[u] == fill and kinds[u] == psi_kind for u in range(n)]
        psi = _run_heights(gt, active)
    return merge_partitions(gt, tau, kinds, class_groups, direction, psi)


def min_partition(g: LabeledGraph, stats: EngineStats | None = None) -> Partition:
    """Ordered partition of all nodes by their minimum strings, ascending."""
    require_valid(g)
    groups = _engine(g, [KIND_MIN] * g.n, stats)
    return partition_from_groups(groups)


def max_partition(g: LabeledGraph, stats: EngineStats | None = None) -> Partition:
    """Ordered partition of all nodes by their maximum strings, ascending."""
    require_valid(g)
    groups = _engine(g, [KIND_MAX] * g.n, stats)
    return partition_from_groups(groups)


def _union_graph(g: LabeledGraph) -> LabeledGraph:
    """Two disjoint copies of g in one id space (copy 2 offset by n)."""
    n = g.n
    preds = list(g.preds) + [[p + n for p in ps] for ps in g.preds]
    return make_graph(g.label * 2, preds, sigma=g.sigma)


def minmax_partition(
    g: LabeledGraph, stats: EngineStats | None = None
) -> MinMaxPartition:
    """Joint ordered partition of all (node, min|max) keys, ascending."""
    require_valid(g)
    n = g.n
    u2 = _union_graph(g)
    kinds = [KIND_MIN] * n + [KIND_MAX] * n
    groups = _engine(u2, kinds, stats)
    out = []
    for grp in groups:
        keys = tuple(
            sorted(
                (
                    MinMaxKey(x % n, "min" if x < n else "max")
                    for x in grp
                ),
                key=lambda k: (k.node, k.kind != "min"),
            )
        )
        out.append(keys)
    return MinMaxPartition(tuple(out))


def reduction_step(
    g: LabeledGraph,
) -> tuple[list[int], int, ReducedGraph | None]:
    """One classify-trim-reduce step in the min sense, for inspection.

    Returns (tau, direction, reduced graph or None when the chosen class is
    empty). This is what the first level of min_partition does internally.
    """
    require_valid(g)
    tau, _n1, _n3, direction, _gt, _records, rg = _level(g, [KIND_MIN] * g.n)
    return tau, direction, rg
