"""Brute-force ground truth, independent of the recursive algorithm.

Everything here favors being obviously correct over being fast: bounded
prefix tables built by direct dynamic programming, partitions computed as a
rank fixpoint of the same recurrence, and exhaustive enumeration of all small
legal graphs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import product

from .driver import MinMaxKey, MinMaxPartition
from .graph import LabeledGraph, make_graph, require_valid
from .merge import Partition, partition_from_groups


class OracleStabilizationError(RuntimeError):
    """The rank iteration failed to stabilize; indicates an implementation bug."""


def oracle_prefixes(g: LabeledGraph, kind: str, L: int) -> list[tuple[int, ...]]:
    """First L characters of min_u (or max_u) for every node.

    S_1(u) = label(u); S_{k+1}(u) = label(u) followed by the best length-k
    row among u's predecessors.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    best = min if kind == "min" else max
    rows: list[tuple[int, ...]] = [(c,) for c in g.label]
    for _ in range(L - 1):
        rows = [
            (g.label[u],) + best(rows[p] for p in g.preds[u])[: L - 1]
            for u in range(g.n)
        ]
    return [r[:L] for r in rows]


def _dense_rank(keys: Sequence[tuple]) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _rank_fixpoint(
    labels: Sequence[int],
    preds: Sequence[Sequence[int]],
    use_max: Sequence[bool],
) -> list[int]:
    """Rank every key by its infinite string via iteration to a fixpoint.

    The ordered partition after one more character is a function of the
    labels and the current ordered partition alone, so two consecutive equal
    rank vectors mean the ranking of the infinite strings has been reached.
    """
    m = len(labels)
    n_guard = 8 * (m * m + m) + 2
    rank = _dense_rank([(c,) for c in labels])
    for _ in range(n_guard):
        new = _dense_rank(
            [
                (
                    labels[u],
                    max(rank[p] for p in preds[u])
                    if use_max[u]
                    else min(rank[p] for p in preds[u]),
                )
                for u in range(m)
            ]
        )
        if new == rank:
            return rank
        rank = new
    raise OracleStabilizationError(f"no fixpoint after {n_guard} steps")


def _groups_from_rank(rank: Sequence[int]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for u, r in enumerate(rank):
        groups.setdefault(r, []).append(u)
    return [groups[r] for r in sorted(groups)]


def oracle_partition(g: LabeledGraph, kind: str) -> Partition:
    """Ground-truth ordered partition by minima or maxima, ascending."""
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be min or max, got {kind!r}")
    require_valid(g)
    if g.n == 0:
        return partition_from_groups([])
    rank = _rank_fixpoint(g.label, g.preds, [kind == "max"] * g.n)
    return partition_from_groups(_groups_from_rank(rank))


def oracle_minmax(g: LabeledGraph) -> MinMaxPartition:
    """Ground-truth joint partition of all (node, min|max) keys."""
    require_valid(g)
    n = g.n
    labels = list(g.label) + list(g.label)
    preds = list(g.preds) + [tuple(p + n for p in ps) for ps in g.preds]
    rank = _rank_fixpoint(labels, preds, [False] * n + [True] * n)
    out = []
    for grp in _groups_from_rank(rank):
        keys = tuple(
            sorted(
                (MinMaxKey(x % n, "min" if x < n else "max") for x in grp),
                key=lambda k: (k.node, k.kind != "min"),
            )
        )
        out.append(keys)
    return MinMaxPartition(tuple(out))


def enumerate_graphs_for_n(n: int, sigma_max: int) -> Iterator[LabeledGraph]:
    """Every valid graph with exactly n nodes and alphabet size <= sigma_max.

    Iterates over all surjective labelings and, per source node, all choices
    of at most one successor per character (which is exactly determinism),
    keeping the structures where every node has a predecessor. No isomorphism
    reduction.
    """
    for s in range(1, min(n, sigma_max) + 1):
        for labels in product(range(s), repeat=n):
            if len(set(labels)) != s:
                continue
            by_char: list[list[int]] = [[] for _ in range(s)]
            for v, c in enumerate(labels):
                by_char[c].append(v)
            # per node: one choice per character, -1 meaning no such edge
            per_node = list(product(*[[-1, *by_char[c]] for c in range(s)]))
            for choice in product(per_node, repeat=n):
                indeg = [0] * n
                ok = True
                for targets in choice:
                    for v in targets:
                        if v >= 0:
                            indeg[v] += 1
                for v in range(n):
                    if indeg[v] == 0:
                        ok = False
                        break
                if not ok:
                    continue
                preds: list[list[int]] = [[] for _ in range(n)]
                for u, targets in enumerate(choice):
                    for v in targets:
                        if v >= 0:
                            preds[v].append(u)
                yield make_graph(list(labels), preds, sigma=s)


def enumerate_small_graphs(n_max: int, sigma: int) -> Iterator[LabeledGraph]:
    """Every valid graph with 1..n_max nodes over alphabet size <= sigma."""
    for n in range(1, n_max + 1):
        yield from enumerate_graphs_for_n(n, sigma)


def count_graphs_by_edge_subsets(n: int, sigma_max: int) -> int:
    """Independent recount of enumerate_graphs_for_n, for self-consistency.

    Enumerates raw edge subsets of the complete digraph and filters by the
    graph invariants directly. Exponential in n^2; keep n <= 3.
    """
    all_edges = [(u, v) for u in range(n) for v in range(n)]
    count = 0
    for s in range(1, min(n, sigma_max) + 1):
        for labels in product(range(s), repeat=n):
            if len(set(labels)) != s:
                continue
            for mask in range(1 << len(all_edges)):
                indeg = [0] * n
                out_chars: list[set[int]] = [set() for _ in range(n)]
                ok = True
                for i, (u, v) in enumerate(all_edges):
                    if not mask >> i & 1:
                        continue
                    indeg[v] += 1
                    if labels[v] in out_chars[u]:
                        ok = False
                        break
                    out_chars[u].add(labels[v])
                if ok and all(d > 0 for d in indeg):
                    count += 1
    return count
