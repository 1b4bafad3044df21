"""Recursive computation of min-, max-, and joint min/max-partitions.

The engine sorts nodes by their minimum strings: classify the nodes, pick
the smaller of the tau=1 / tau=3 classes, trim each row to its least-label
run, explore the class nodes in one pass, recurse on the reduced graph, and
merge the recursed partition back. The recursed class never exceeds half
the nodes, so the recursion depth is O(log n) and total work is quadratic.

The maximum strings of g are the minimum strings of g with its character
order flipped, so ``max_partition`` runs the same engine on the transposed
graph and reverses the groups. It first cuts each row of g to its
greatest-label run, the run that carries the maximum string, and transposes
only that: the transposed runs are the least-label runs that the engine's
top-level trim keeps, so the engine sees the same graph, and the other
edges are never copied. The joint partition runs
the engine for min and for max and keeps one extremal in-edge per (node,
kind) key. Within one kind the order is then known, so it places each max
group among the min groups by a monotone recurrence over the kept edges:
one bisect per max group, iterated only on the cycles of the kept max
edges.

``min_partition``, ``max_partition`` and ``minmax_partition`` pause CPython's
cyclic garbage collector while they run. A call allocates hundreds of
thousands of lists and tuples that reference counting frees and that form
no cycles, so the collector's passes over them cost time and find nothing.
A collector that was enabled is enabled again when the call returns
or raises; one the caller disabled stays disabled. The switch is for the
whole process: another thread's cycles wait until the call returns, and of
two overlapping calls in different threads the second may run part of its
time with the collector on again. Both cases give the same results.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Literal

from .classify import compute_tau
# make_graph is no longer called here, but perfbench/tracer.py patches
# gsa.driver.make_graph, so the name stays
from .graph import LabeledGraph, make_graph, require_valid, transpose_alphabet, trim_for_kinds  # noqa: F401
from .graph import _trim_to_greatest_runs
from .merge import Partition, merge_partitions, partition_from_groups, _run_heights
from .reduction import ReducedGraph, build_reduced_graph, explore


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
        if kind not in ("min", "max"):
            raise ValueError(f"kind must be min or max, got {kind!r}")
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
    m: int  # edges into the level
    kept: int  # edges after the trim


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


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic collector, if it is enabled, for the block or for
    each call of the function it decorates."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _level(
    g: LabeledGraph, stats: EngineStats | None
) -> tuple[list[int], int, LabeledGraph, ReducedGraph | None, LevelStats | None]:
    """One classify-trim-explore-reduce step of the recursion.

    Explores the whole class recursed on in one call and reduces it in one
    more, both on the trimmed graph, which keeps every minimum string and
    tau. Returns (tau, direction, trimmed graph, reduced graph or None when
    the class is empty, the level's LevelStats or None when ``stats`` is
    None). The keys and frontiers stay here, so the recursion does not hold
    them; the most edges one node's walk read is folded into
    ``stats.peak_exploration_edges``.
    """
    n = g.n
    tau = compute_tau(g)
    n1 = tau.count(1)
    n3 = tau.count(3)
    direction = 3 if n3 == 0 or (n1 > 0 and n3 <= n1) else 1
    gt = trim_for_kinds(g)
    class_nodes = [u for u in range(n) if tau[u] == direction]
    rg = None
    if class_nodes:
        if min(n1, n3) > 0 and len(class_nodes) > n // 2:
            raise AssertionError(f"recursed class has {len(class_nodes)} of {n} nodes")
        ex = explore(gt, tau, class_nodes, direction)
        rg = build_reduced_graph(gt, class_nodes, ex.keys, ex.frontiers)
        if stats is not None:
            stats.peak_exploration_edges = max(stats.peak_exploration_edges, ex.peak_edges)
    if stats is None:
        return tau, direction, gt, rg, None
    reduced_n = 0 if rg is None else rg.graph.n
    level = LevelStats(n, n1, n3, direction, reduced_n, g.edge_count(), gt.edge_count())
    return tau, direction, gt, rg, level


def _engine(g: LabeledGraph, stats: EngineStats | None) -> list[list[int]]:
    """Groups of all nodes of g by their minimum strings, ascending."""
    n = g.n
    if n == 0:
        return []
    if n == 1:
        return [[0]]
    tau, direction, gt, rg, level = _level(g, stats)
    if rg is None:
        class_groups: list[list[int]] = []
    else:
        sub_groups = _engine(rg.graph, stats)
        class_groups = [[rg.node_map[i] for i in grp] for grp in sub_groups]
    if stats is not None:
        stats.levels.append(level)

    # direction 1 places the tau=3 nodes by run heights
    psi = _run_heights(gt, [t == 3 for t in tau]) if direction == 1 else None
    return merge_partitions(gt, tau, class_groups, direction, psi)


@_collector_paused()
def min_partition(g: LabeledGraph, stats: EngineStats | None = None) -> Partition:
    """Ordered partition of all nodes by their minimum strings, ascending."""
    require_valid(g)
    return partition_from_groups(_engine(g, stats))


def _max_groups(
    g: LabeledGraph, stats: EngineStats | None
) -> tuple[list[list[int]], LabeledGraph]:
    """Groups of all nodes of g by their maximum strings, ascending, and g
    cut to its greatest-label runs.

    The engine runs on the transposed graph of that cut, whose rows are the
    ones its top-level trim would keep, so that trim changes nothing and
    only the kept edges are copied. The top level, recorded last, still
    counts all of g's edges as its ``m``.
    """
    greatest = _trim_to_greatest_runs(g)
    groups = _engine(transpose_alphabet(greatest), stats)
    if stats is not None and g.n > 1:  # n <= 1 records no level
        stats.levels[-1].m = g.edge_count()
    return groups[::-1], greatest


@_collector_paused()
def max_partition(g: LabeledGraph, stats: EngineStats | None = None) -> Partition:
    """Ordered partition of all nodes by their maximum strings, ascending."""
    require_valid(g)
    return partition_from_groups(_max_groups(g, stats)[0])


def _group_index(groups: list[list[int]], n: int) -> list[int]:
    """The index of each node's group."""
    rank = [0] * n
    for i, grp in enumerate(groups):
        for u in grp:
            rank[u] = i
    return rank


def _union_graph(
    least: LabeledGraph, greatest: LabeledGraph, rank_min: list[int], rank_max: list[int]
) -> tuple[list[int], list[int]]:
    """One kept predecessor per key: (f, h).

    ``least`` and ``greatest`` are g with each row cut to its least- and
    greatest-label run, the only sources that can carry a min or max string.
    ``f[u]`` is u's predecessor in ``least`` of least min rank and ``h[u]``
    its predecessor in ``greatest`` of greatest max rank, so following f (h)
    from u spells u's min (max) string.
    """
    min_key = rank_min.__getitem__
    max_key = rank_max.__getitem__
    f = [ps[0] if len(ps) == 1 else min(ps, key=min_key) for ps in least.preds]
    h = [ps[0] if len(ps) == 1 else max(ps, key=max_key) for ps in greatest.preds]
    return f, h


def _interleave(
    F: list[int], bounds: list[int], H: list[int], c_of: list[int]
) -> tuple[list[int], list[bool]]:
    """Place each max group among the min groups: (lo, eq).

    ``F[i]`` is the min group of min group i's kept predecessors and
    ``bounds[c]`` the first min group of label c; F increases on each label's
    range. Max group j has label ``c_of[j]`` and its kept predecessors in max
    group ``H[j]``. ``lo[j]``, the number of min groups whose string is below
    j's, is the least fixpoint of ``lo[j] = bisect_left(F, lo[H[j]],
    bounds[c], bounds[c + 1])``: iterated from 0, round k counts k-character
    prefixes. ``eq[j]``, j's string equal to min group lo[j]'s, is the
    greatest fixpoint of ``eq[j] = eq[H[j]] and F[lo[j]] == lo[H[j]]`` with
    lo[j] in range.

    H is a functional graph. Its trees are peeled (Kahn); each cycle is
    swept against its edges until a loop changes nothing, and is equal
    throughout or nowhere. Then each tree group takes one bisect, nearest
    the cycle first. A cycle of length L settles within about (n + L) / L +
    2 loops (Fine and Wilf), so the worst case is O(n^2), the engine's own
    bound.
    """
    q = len(H)
    indeg = [0] * q
    for k in H:
        indeg[k] += 1
    peel = [j for j in range(q) if not indeg[j]]
    for j in peel:  # grows while it is read
        k = H[j]
        indeg[k] -= 1
        if not indeg[k]:
            peel.append(k)

    lo = [0] * q
    eq = [True] * q
    for j0 in range(q):
        if not indeg[j0]:
            continue
        cycle = []
        k = j0
        while indeg[k]:  # the groups left unpeeled lie on cycles
            indeg[k] = 0
            cycle.append(k)
            k = H[k]
        cycle.reverse()  # each group after the one it reads
        changed = True
        while changed:
            changed = False
            for j in cycle:
                c = c_of[j]
                x = bisect_left(F, lo[H[j]], bounds[c], bounds[c + 1])
                if x != lo[j]:
                    lo[j] = x
                    changed = True
        same = all(
            lo[j] < bounds[c_of[j] + 1] and F[lo[j]] == lo[H[j]] for j in cycle
        )
        for j in cycle:
            eq[j] = same
    for j in reversed(peel):
        c = c_of[j]
        k = H[j]
        x = lo[j] = bisect_left(F, lo[k], bounds[c], bounds[c + 1])
        eq[j] = eq[k] and x < bounds[c + 1] and F[x] == lo[k]
    return lo, eq


@_collector_paused()
def minmax_partition(
    g: LabeledGraph, stats: EngineStats | None = None
) -> MinMaxPartition:
    """Joint ordered partition of all (node, min|max) keys, ascending.

    The keys of one min or max group share one string, so the max groups
    are placed among the min groups (:func:`_interleave`), and a max group
    equal to a min group joins it.
    """
    require_valid(g)
    n = g.n
    label = g.label
    min_groups = _engine(g, stats)
    max_groups, greatest = _max_groups(g, stats)
    rank_min = _group_index(min_groups, n)
    rank_max = _group_index(max_groups, n)
    f, h = _union_graph(trim_for_kinds(g), greatest, rank_min, rank_max)
    c_min = [label[grp[0]] for grp in min_groups]
    lo, eq = _interleave(
        [rank_min[f[grp[0]]] for grp in min_groups],
        [bisect_left(c_min, c) for c in range(g.sigma + 1)],
        [rank_max[h[grp[0]]] for grp in max_groups],
        [label[grp[0]] for grp in max_groups],
    )

    def keys(grp: list[int], kind: str) -> tuple[MinMaxKey, ...]:
        if len(grp) == 1:
            return (MinMaxKey(grp[0], kind),)
        return tuple(MinMaxKey(u, kind) for u in sorted(grp))

    mins = [keys(grp, "min") for grp in min_groups]
    maxs = [keys(grp, "max") for grp in max_groups]
    groups: list[tuple[MinMaxKey, ...]] = []
    i = 0  # the next min group
    for j, x in enumerate(lo):
        if i < x:
            groups += mins[i:x]
            i = x
        if not eq[j]:
            groups.append(maxs[j])
            continue
        # by node, min before max: sorted is stable
        groups.append(tuple(sorted(mins[i] + maxs[j], key=attrgetter("node"))))
        i += 1
    groups += mins[i:]
    return MinMaxPartition(tuple(groups))


def reduction_step(
    g: LabeledGraph,
) -> tuple[list[int], int, ReducedGraph | None]:
    """One classify-trim-reduce step in the min sense, for inspection.

    Returns (tau, direction, reduced graph or None when the chosen class is
    empty). It is min_partition's first level, least-label trim included.
    """
    require_valid(g)
    tau, direction, _gt, rg, _stats = _level(g, None)
    return tau, direction, rg
