"""Brute-force ground truth, independent of the recursive algorithm.

Everything here favors being obviously correct over being fast: bounded
prefix tables built by direct dynamic programming, and partitions computed
as a rank fixpoint of the same recurrence.
"""

from __future__ import annotations

from collections.abc import Sequence

from .driver import MinMaxKey, MinMaxPartition
from .graph import LabeledGraph, require_valid
from .merge import Partition, partition_from_groups


class OracleStabilizationError(RuntimeError):
    """The rank iteration failed to stabilize; indicates an implementation bug."""


def oracle_prefixes(g: LabeledGraph, kind: str, L: int) -> list[tuple[int, ...]]:
    """First L characters of min_u (or max_u) for every node.

    S_1(u) = label(u); S_{k+1}(u) = label(u) followed by the best length-k
    row among u's predecessors.
    """
    if kind not in ("min", "max"):
        raise ValueError(f"kind must be min or max, got {kind!r}")
    if not isinstance(L, int) or L < 1:
        raise ValueError(f"L must be an int >= 1, got {L!r}")
    require_valid(g)
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

