"""Lift a partition of the recursed tau class back to a partition of all nodes.

Working state is a grid of buckets A[c][t], one per (character, tau class),
holding integer group ids; a group's members and run height live in lists
indexed by its id. The class that was recursed on and the tau=2 seeds are
prefilled; groups are then processed in string order and each processed
group emits successor groups into the remaining tau class (the fill class),
which is built incrementally: the fill successors that one group
reaches are grouped by label as they are placed, whatever the group's size.

The direction of the recursion picks how the fill class is placed:

* direction 3 (ascending sweep, tau=1 class built) places by marking: a node
  is placed once, the first time it is reached, and never moves;
* direction 1 (descending sweep whose processing order is reversed at the
  end, tau=3 class built) places by run-length heights (psi) with
  tombstones: a node may be re-placed by a later, better group before its
  group is processed, and stale placements are skipped when their group is
  processed.

Either way every node is output exactly once, in a group of nodes with equal
strings, or :class:`MergeError` is raised.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .classify import equal_label_heights
from .graph import LabeledGraph

class MergeError(RuntimeError):
    """A node was never placed, or placed twice: inputs were inconsistent."""


@dataclass(frozen=True)
class Partition:
    """Ordered partition of a node universe by string value.

    Nodes in one group have equal strings; an earlier group means a strictly
    smaller string. ``rank`` maps node -> group index; it is built on first
    read.
    """

    groups: tuple[tuple[int, ...], ...]

    @cached_property
    def rank(self) -> dict[int, int]:
        return {u: i for i, grp in enumerate(self.groups) for u in grp}


def partition_from_groups(groups: Sequence[Sequence[int]]) -> Partition:
    return Partition(tuple(tuple(sorted(grp)) for grp in groups))


def _run_heights(g: LabeledGraph, active: Sequence[bool]) -> list[int]:
    """Length of the leading label-run of the string of every active node.

    psi[u] = 1 + max psi over active equal-label predecessors, or 1 if there
    are none: :func:`equal_label_heights`. The active nodes are the
    run-length-placed fill class (the tau=3 nodes of a direction-1 level),
    whose equal-label chains are acyclic, so the peel reaches every one of
    them; an active node it leaves at 0 raises :class:`MergeError`. Entries
    for other nodes are 0.
    """
    psi = equal_label_heights(g, active)
    for u in range(g.n):
        if active[u] and not psi[u]:
            raise MergeError(f"equal-label cycle through node {u} in a tau=3 chain")
    return psi


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

    A group is an integer id into two parallel lists: its members and its
    run height. The buckets hold ids, and ``placed_gid[v]`` is the id of the
    group that currently holds fill node ``v``; a group's live members are
    those it still holds. A processed group opens every id from ``base``,
    the next free id when it starts. It skips a successor ``v`` if
    ``placed_gid[v] >= first``: marking (``first = 0``) skips every placed
    node, run-length placement (``first = base``) only the nodes this group
    placed. ``v`` joins ``open_gid[label[v]]``, the last group opened for its
    label, if that is ``>= base``, and opens one if not.

    No node is re-placed after its group was processed. Marking never
    re-places. Under run-length placement a node ``v`` always lands in a
    group of height ``psi[v]``, placed either from a greater character's
    bucket (height 1, before ``v``'s bucket is processed at all) or from a
    group of height ``psi[v] - 1`` in ``v``'s own fill bucket. The heights
    in a fill bucket do not decrease in processing order: its height-1
    groups all exist before it is processed, and a group of height h
    appends only groups of height h + 1, behind groups of height at most
    h + 1 (by induction). So every group that can place ``v`` is processed
    before any group of height ``psi[v]``. A wrong placement of any other
    kind is caught by the final placed-exactly-once check.
    """
    n = g.n
    sigma = g.sigma
    label = g.label
    succs = g.succs
    fill = 1 if direction == 3 else 3
    ascending = direction == 3

    members: list[list[int]] = []  # of each group, indexed by group id
    buckets: list[list[list[int]]] = [[[] for _ in range(4)] for _ in range(sigma)]
    to_fill = [row[fill] for row in buckets]  # the fill bucket of each character

    for grp in class_groups:
        ms = list(grp)
        if not ms:
            continue
        c = label[ms[0]]
        if any(label[x] != c or tau[x] != direction for x in ms):
            raise MergeError("class group is not label- and tau-pure")
        buckets[c][direction].append(len(members))
        members.append(ms)
    by_label: list[list[int]] = [[] for _ in range(sigma)]
    for u in range(n):
        if tau[u] == 2:
            by_label[label[u]].append(u)
    for c in range(sigma):
        if by_label[c]:
            buckets[c][2].append(len(members))
            members.append(by_label[c])
    nxt = len(members)  # id of the next group
    height = [0] * nxt  # run height (psi) of each group's members

    placed_gid = [-1] * n  # current group of each fill node
    open_gid = [-1] * sigma  # last group opened for each label
    out: list[list[int]] = []
    if not ascending and psi is None:
        raise MergeError("psi heights required but not provided")

    char_order = range(sigma) if ascending else range(sigma - 1, -1, -1)
    t_order = (1, 2, 3) if ascending else (3, 2, 1)

    for c_i in char_order:
        for t in t_order:
            in_fill = t == fill
            lst = buckets[c_i][t]
            if not (ascending or in_fill):
                lst = lst[::-1]
            # a fill bucket grows while it is processed
            i = 0
            while i < len(lst):
                gid = lst[i]
                i += 1
                alive = members[gid]
                if in_fill:
                    if len(alive) == 1:
                        if placed_gid[alive[0]] != gid:
                            continue
                    else:
                        alive = [v for v in alive if placed_gid[v] == gid]
                        if not alive:
                            continue
                out.append(alive)
                h = height[gid]
                base = nxt  # every id from base on is opened by this group
                first = 0 if ascending else base
                for u in alive:
                    for v in succs[u]:
                        if tau[v] != fill or placed_gid[v] >= first:
                            continue
                        c_k = label[v]
                        if not ascending:
                            # run-length placement: only toward the already-swept
                            # side, and an equal character only from within the
                            # fill class
                            if c_k > c_i or (c_k == c_i and not in_fill):
                                continue
                            if psi[v] != (h + 1 if c_k == c_i else 1):
                                continue
                        j = open_gid[c_k]
                        if j < base:  # this group has opened none of this label yet
                            j = open_gid[c_k] = nxt
                            nxt += 1
                            to_fill[c_k].append(j)
                            members.append([v])
                            height.append(h + 1 if c_k == c_i and in_fill else 1)
                        else:
                            members[j].append(v)
                        placed_gid[v] = j

    if not ascending:
        out.reverse()
    for grp in out:
        for u in grp:
            placed_gid[u] = nxt  # no group has id nxt
    if sum(map(len, out)) != n or placed_gid.count(nxt) != n:
        raise MergeError("merge did not place every node exactly once")
    return out
