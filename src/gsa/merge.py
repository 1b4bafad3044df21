"""Lift a partition of the recursed tau class back to a partition of all nodes.

Working state is a grid of buckets A[c][t], one per (character, tau class).
The class that was recursed on and the tau=2 seeds are prefilled; groups are
then processed in string order and each processed group emits successor
groups into the remaining tau class, which is built incrementally.

The direction of the recursion picks how that class is placed:

* direction 3 (ascending sweep, tau=1 class built) places by marking: a node
  is placed once, the first time it is reached, and never moves;
* direction 1 (descending sweep whose processing order is reversed at the
  end, tau=3 class built) places by run-length heights (psi) with
  tombstones: a node may be re-placed by a later, better group, and stale
  placements are skipped when their group is processed.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .graph import LabeledGraph

class MergeError(RuntimeError):
    """A node was never placed, or placed twice: inputs were inconsistent."""


@dataclass(frozen=True)
class Partition:
    """Ordered partition of a node universe by string value.

    Nodes in one group have equal strings; an earlier group means a strictly
    smaller string. ``rank`` maps node -> group index.
    """

    groups: tuple[tuple[int, ...], ...]
    rank: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        r = {u: i for i, grp in enumerate(self.groups) for u in grp}
        object.__setattr__(self, "rank", r)


def partition_from_groups(groups: Sequence[Sequence[int]]) -> Partition:
    return Partition(tuple(tuple(sorted(grp)) for grp in groups))


def _run_heights(g: LabeledGraph, active: Sequence[bool]) -> list[int]:
    """Length of the leading label-run of the string of every active node.

    psi[u] = 1 + max psi over active equal-label predecessors, or 1 if there
    are none. The active nodes are the run-length-placed fill class (the
    tau=3 nodes of a direction-1 level), whose equal-label chains are
    acyclic, so a memoized depth-first pass suffices. Entries for other nodes
    are 0.
    """
    n = g.n
    label = g.label
    preds = g.preds
    psi = [0] * n
    onstack = [False] * n
    for s in range(n):
        if not active[s] or psi[s]:
            continue
        stack: list[tuple[int, int, int]] = [(s, 0, 0)]  # node, pred idx, best child
        onstack[s] = True
        while stack:
            u, i, best = stack.pop()
            lu = label[u]
            ps = preds[u]
            descended = False
            while i < len(ps):
                p = ps[i]
                i += 1
                if label[p] != lu or not active[p]:
                    continue
                if psi[p]:
                    if psi[p] > best:
                        best = psi[p]
                    continue
                if onstack[p]:
                    raise MergeError(
                        f"equal-label cycle through node {p} in a tau=3 chain"
                    )
                # revisit this edge after the child resolves so its height
                # is folded into best
                stack.append((u, i - 1, best))
                stack.append((p, 0, 0))
                onstack[p] = True
                descended = True
                break
            if descended:
                continue
            psi[u] = best + 1
            onstack[u] = False
    return psi


@dataclass
class _Group:
    members: list[int]
    psi: int
    gid: int
    processed: bool = False


def merge_partitions(
    g: LabeledGraph,
    tau: Sequence[int],
    class_groups: Sequence[Sequence[int]],
    direction: int,
    psi: Sequence[int] | None = None,
) -> list[list[int]]:
    """Run the bucket schedule; return groups of all nodes in string order.

    ``class_groups`` is the true ordered partition of the tau=direction nodes
    (ascending). With direction 1, ``psi`` must give the run heights of the
    tau=3 nodes, which are placed by the run-length mechanism.
    """
    n = g.n
    sigma = g.sigma
    label = g.label
    succs = g.succs
    fill = 1 if direction == 3 else 3
    ascending = direction == 3

    buckets: list[list[list[_Group]]] = [
        [[] for _ in range(4)] for _ in range(sigma)
    ]
    groups_by_gid: list[_Group] = []

    def new_group(members: list[int], psi_val: int) -> _Group:
        grp = _Group(members, psi_val, len(groups_by_gid))
        groups_by_gid.append(grp)
        return grp

    for members in class_groups:
        ms = list(members)
        if not ms:
            continue
        c = label[ms[0]]
        if any(label[x] != c or tau[x] != direction for x in ms):
            raise MergeError("class group is not label- and tau-pure")
        buckets[c][direction].append(new_group(ms, 0))
    by_label: list[list[int]] = [[] for _ in range(sigma)]
    for u in range(n):
        if tau[u] == 2:
            by_label[label[u]].append(u)
    for c in range(sigma):
        if by_label[c]:
            buckets[c][2].append(new_group(by_label[c], 0))

    placed_gid = [-1] * n  # current group of each fill node
    out: list[list[int]] = []
    if not ascending and psi is None:
        raise MergeError("psi heights required but not provided")

    char_order = range(sigma) if ascending else range(sigma - 1, -1, -1)
    t_order = (1, 2, 3) if ascending else (3, 2, 1)

    def process(grp: _Group, c_i: int, t: int) -> None:
        grp.processed = True
        if t == fill:
            alive = [v for v in grp.members if placed_gid[v] == grp.gid]
        else:
            alive = grp.members
        if not alive:
            return
        out.append(alive)
        cand: dict[int, list[int]] = {}
        in_cand: set[int] = set()
        for u in alive:
            for v in succs[u]:
                if tau[v] != fill or v in in_cand:
                    continue
                c_k = label[v]
                if ascending:
                    if placed_gid[v] >= 0:
                        continue
                else:
                    # run-length placement: only toward the already-swept side,
                    # and an equal character only from within the fill class
                    if c_k > c_i or (c_k == c_i and t != fill):
                        continue
                    if psi[v] != (grp.psi + 1 if c_k == c_i else 1):
                        continue
                in_cand.add(v)
                cand.setdefault(c_k, []).append(v)
        for c_k, members in cand.items():
            psi_val = grp.psi + 1 if c_k == c_i and t == fill else 1
            j = new_group(members, psi_val)
            for v in members:
                old = placed_gid[v]
                if old >= 0 and groups_by_gid[old].processed:
                    raise MergeError(
                        f"node {v} re-placed after its group was finalized"
                    )
                placed_gid[v] = j.gid
            buckets[c_k][fill].append(j)

    for c in char_order:
        for t in t_order:
            lst = buckets[c][t]
            if t == fill:
                i = 0
                while i < len(lst):
                    grp = lst[i]
                    i += 1
                    process(grp, c, t)
            else:
                for grp in (lst if ascending else reversed(lst)):
                    process(grp, c, t)

    if not ascending:
        out.reverse()
    placed = sum(len(grp) for grp in out)
    if placed != n or {u for grp in out for u in grp} != set(range(n)):
        raise MergeError("merge did not place every node exactly once")
    return out
