"""Recursive computation of min-, max-, and joint min/max-partitions.

The engine sorts nodes by their minimum strings: classify the nodes, pick
the smaller of the tau=1 / tau=3 classes, trim, explore each class node,
recurse on the reduced graph, and merge the recursed partition back. The
recursed class never exceeds half the nodes, so the recursion depth is
O(log n) and total work is quadratic.

The maximum strings of g are the minimum strings of g with its character
order flipped, so ``max_partition`` runs the same engine on
``transpose_alphabet(g)`` and reverses the groups. The joint partition runs
the engine for min and for max, keeps one extremal in-edge per (node, kind)
key, and orders the 2n keys by prefix doubling over those edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .classify import compute_tau
# make_graph is no longer called here, but perfbench/tracer.py patches
# gsa.driver.make_graph, so the name stays
from .graph import LabeledGraph, make_graph, require_valid, transpose_alphabet, trim_for_kinds  # noqa: F401
from .merge import Partition, merge_partitions, partition_from_groups, _run_heights
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
    """Instrumentation for the complexity and recursion-size assertions.

    One entry per engine level. A ``max`` call records the run on the
    transposed graph; a ``minmax`` call records the min run, then the max
    run.
    """

    levels: list[LevelStats] = field(default_factory=list)
    peak_exploration_edges: int = 0

    @property
    def depth(self) -> int:
        return len(self.levels)


def _level(
    g: LabeledGraph,
) -> tuple[
    list[int], int, int, int, LabeledGraph, list[ExplorationRecord], ReducedGraph | None
]:
    """One classify-trim-explore-reduce step of the recursion.

    Returns (tau, n1, n3, direction, trimmed graph, exploration records,
    reduced graph or None when the class recursed on is empty).
    """
    n = g.n
    tau = compute_tau(g)
    n1 = tau.count(1)
    n3 = tau.count(3)
    direction = 3 if n3 == 0 or (n1 > 0 and n3 <= n1) else 1
    gt = trim_for_kinds(g, tau)
    class_nodes = [u for u in range(n) if tau[u] == direction]
    if not class_nodes:
        return tau, n1, n3, direction, gt, [], None
    if min(n1, n3) > 0 and len(class_nodes) > n // 2:
        raise AssertionError(f"recursed class has {len(class_nodes)} of {n} nodes")
    scratch = ExplorationScratch(n)
    records = [explore(gt, tau, u, direction, scratch=scratch) for u in class_nodes]
    rg = build_reduced_graph(gt, records, direction)
    return tau, n1, n3, direction, gt, records, rg


def _engine(g: LabeledGraph, stats: EngineStats | None) -> list[list[int]]:
    """Groups of all nodes of g by their minimum strings, ascending."""
    n = g.n
    if n == 0:
        return []
    if n == 1:
        return [[0]]
    tau, n1, n3, direction, gt, records, rg = _level(g)
    if rg is None:
        class_groups: list[list[int]] = []
        reduced_n = 0
    else:
        sub_groups = _engine(rg.graph, stats)
        class_groups = [[rg.node_map[i] for i in grp] for grp in sub_groups]
        reduced_n = rg.graph.n

    if stats is not None:
        for r in records:
            if r.edges_scanned > stats.peak_exploration_edges:
                stats.peak_exploration_edges = r.edges_scanned
        stats.levels.append(LevelStats(n, n1, n3, direction, reduced_n))

    # direction 1 places the tau=3 nodes by run heights
    psi = _run_heights(gt, [t == 3 for t in tau]) if direction == 1 else None
    return merge_partitions(gt, tau, class_groups, direction, psi)


def min_partition(g: LabeledGraph, stats: EngineStats | None = None) -> Partition:
    """Ordered partition of all nodes by their minimum strings, ascending."""
    require_valid(g)
    return partition_from_groups(_engine(g, stats))


def max_partition(g: LabeledGraph, stats: EngineStats | None = None) -> Partition:
    """Ordered partition of all nodes by their maximum strings, ascending."""
    require_valid(g)
    return partition_from_groups(_engine(transpose_alphabet(g), stats)[::-1])


def _union_graph(
    g: LabeledGraph, min_groups: list[list[int]], max_groups: list[list[int]]
) -> tuple[tuple[int, ...], list[int]]:
    """The doubled key graph: one label and one kept in-edge per key.

    Key x < n is (x, min) and key x + n is (x, max); both carry label[x]. A
    min key keeps the edge from a predecessor of least min rank, a max key
    the edge from a predecessor of greatest max rank, so following kept
    edges from a key spells its string. Returns (labels, kept source key).
    """
    n = g.n
    rank_min = [0] * n
    for i, grp in enumerate(min_groups):
        for u in grp:
            rank_min[u] = i
    rank_max = [0] * n
    for i, grp in enumerate(max_groups):
        for u in grp:
            rank_max[u] = i
    link = [min(ps, key=rank_min.__getitem__) for ps in g.preds]
    link += [max(ps, key=rank_max.__getitem__) + n for ps in g.preds]
    return g.label * 2, link


def _joint_ranks(label: tuple[int, ...], link: list[int]) -> list[int]:
    """Rank every key by the string its kept edges spell (prefix doubling).

    After round k, ``rank`` orders the first 2^k characters and ``jump``
    maps a key to the key 2^k kept edges further along its string. The
    first round that splits no class leaves every later round unchanged, so
    it ends the loop. Each kept-edge chain lies within n keys, so two
    strings that agree on 2n characters are equal (Fine and Wilf); at most
    ceil(log2 2n) + 1 rounds run. ``label`` must use every value in
    0..max(label), as a valid graph's labels do, so every rank lies below
    the number of classes. Returns dense ranks.
    """
    rank, jump = list(label), link
    classes = len(set(rank))
    while True:
        keys = [r * classes + rank[j] for r, j in zip(rank, jump)]
        dense = {k: i for i, k in enumerate(sorted(set(keys)))}
        rank = list(map(dense.__getitem__, keys))
        if len(dense) == classes:
            return rank
        classes = len(dense)
        jump = list(map(jump.__getitem__, jump))


def minmax_partition(
    g: LabeledGraph, stats: EngineStats | None = None
) -> MinMaxPartition:
    """Joint ordered partition of all (node, min|max) keys, ascending."""
    require_valid(g)
    n = g.n
    if n == 0:
        return MinMaxPartition(())
    min_groups = _engine(g, stats)
    max_groups = _engine(transpose_alphabet(g), stats)[::-1]
    rank = _joint_ranks(*_union_graph(g, min_groups, max_groups))
    # visiting keys node by node lists each group by node, min before max
    groups: list[list[MinMaxKey]] = [[] for _ in range(max(rank) + 1)]
    for u in range(n):
        groups[rank[u]].append(MinMaxKey(u, "min"))
        groups[rank[u + n]].append(MinMaxKey(u, "max"))
    return MinMaxPartition(tuple(tuple(grp) for grp in groups))


def reduction_step(
    g: LabeledGraph,
) -> tuple[list[int], int, ReducedGraph | None]:
    """One classify-trim-reduce step in the min sense, for inspection.

    Returns (tau, direction, reduced graph or None when the chosen class is
    empty). This is what the first level of min_partition does internally.
    """
    require_valid(g)
    tau, _n1, _n3, direction, _gt, _records, rg = _level(g)
    return tau, direction, rg
