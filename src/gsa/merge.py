"""Lift a partition of the recursed tau class back to a partition of all nodes.

The merge sweeps the characters in order, ascending or descending, and
processes each character's groups in one fixed schedule: its fill groups
(the tau class the merge builds), then its tau=2 group (the nodes whose
string is c^omega), then its class groups (the recursed class, in string
order, reversed in a descending sweep). Each processed group emits its
fill-class successors, grouped by label as they are placed, whatever the
group's size, as new fill groups of their labels. A group is an integer id
into lists of members and run heights.

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

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, groupby

from .classify import equal_label_heights
from .graph import LabeledGraph

class MergeError(RuntimeError):
    """A node was never placed, or placed twice: inputs were inconsistent."""


@dataclass(frozen=True)
class Partition:
    """Ordered partition of a node universe by string value.

    Nodes in one group have equal strings; an earlier group means a strictly
    smaller string.
    """

    groups: tuple[tuple[int, ...], ...]


def partition_from_groups(groups: Sequence[Sequence[int]]) -> Partition:
    return Partition(tuple(tuple(sorted(grp)) for grp in groups))


def _run_heights(g: LabeledGraph, active: Sequence[bool]) -> list[int]:
    """Length of the leading label-run of the string of every active node.

    psi[u] = 1 + max psi over active equal-label predecessors, or 1 if there
    are none: :func:`equal_label_heights`. The active nodes are the
    run-length-placed fill class (the tau=3 nodes of a direction-1 level):
    no smaller-labeled predecessors, as the peel requires, and acyclic
    equal-label chains, so the peel reaches every one of them; an active
    node it leaves at 0 raises :class:`MergeError`. Others get 0.
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
    """Run the per-character schedule; return groups of all nodes in string order.

    ``class_groups`` is the true ordered partition of the tau=direction nodes
    (ascending); one flat pass checks that each group is label- and
    tau-pure and that their labels do not decrease, and the groups are
    output as given, not copied. With direction 1, ``psi`` must give the
    run heights of the tau=3 nodes, which are placed by the run-length
    mechanism.

    Class groups keep ids 0..k-1, and the class groups of character c are
    ids ``bounds[c]`` to ``bounds[c + 1]``. Character c has at most one
    tau=2 group, ``seed[c]``. Fill groups take ids from ``fixed`` on and are
    listed by label in ``to_fill``, which grows while it is read.
    ``placed_gid[v]`` is the id of the group that currently holds fill node
    ``v``; a fill group's live members are those it still holds. A processed
    group opens every id from ``base``, the next free id when it starts. It
    skips a successor ``v`` if ``placed_gid[v] >= first``: marking
    (``first = 0``) skips every placed node, run-length placement
    (``first = base``) only the nodes this group placed. ``v`` joins
    ``open_gid[label[v]]``, the last group opened for its label, if that is
    ``>= base``, and opens one if not.

    No node is re-placed after its group was processed. Marking never
    re-places. Under run-length placement a node ``v`` always lands in a
    group of height ``psi[v]``, placed either from a greater character's
    group (height 1, before ``v``'s character is swept at all) or from a
    group of height ``psi[v] - 1`` among the fill groups of ``v``'s own
    character. The tau=2 and class groups have height 0, so what they place
    gets height 1. The heights of a character's fill groups do not
    decrease in processing order: its height-1 groups all exist before its
    sweep starts, and a group of height h appends only groups of height
    h + 1, behind groups of height at most h + 1 (by induction). So every
    group that can place ``v`` is processed before any group of height
    ``psi[v]``. A wrong placement of any other kind is caught by the final
    placed-exactly-once check.

    Marking never moves a placed node, so a direction-3 merge counts the
    fill nodes still unplaced; once none is left, later groups are only
    emitted, and their forward rows are not walked.

    Only edges into the fill class place a node, so the forward row
    ``fwd[u]`` lists just u's fill-class successors, in id order. The rows
    are built from ``g.preds`` at entry.
    """
    n = g.n
    sigma = g.sigma
    label = g.label
    preds = g.preds
    fill = 1 if direction == 3 else 3
    ascending = direction == 3
    fwd: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if tau[v] == fill:
            for u in preds[v]:
                fwd[u].append(v)

    # not copied: a class group is never extended
    members: list[list[int]] = [grp for grp in class_groups if grp]
    class_labels = [label[grp[0]] for grp in members]
    flat = list(chain.from_iterable(members))  # every class node, group by group
    if (
        list(map(tau.__getitem__, flat)).count(direction) != len(flat)
        or list(map(label.__getitem__, flat))
        != [c for c, grp in zip(class_labels, members) for _ in grp]
        or class_labels != sorted(class_labels)
    ):
        raise MergeError("class group is not label- and tau-pure, or out of label order")
    bounds = [bisect_left(class_labels, c) for c in range(sigma + 1)]
    seed: list[tuple[int, ...]] = [()] * sigma  # the tau=2 group of each label
    t2 = sorted((u for u, t in enumerate(tau) if t == 2), key=label.__getitem__)
    for c, grp in groupby(t2, key=label.__getitem__):
        seed[c] = (len(members),)
        members.append(list(grp))
    fixed = nxt = len(members)  # fill groups take ids from here on
    height = [0] * nxt  # run height (psi) of each group's members
    to_fill: list[list[int]] = [[] for _ in range(sigma)]  # of each label

    placed_gid = [-1] * n  # current group of each fill node
    left = tau.count(fill) if ascending else -1  # fill nodes left to place; -1: never stop
    open_gid = [-1] * sigma  # last group opened for each label
    out: list[list[int]] = []
    if not ascending and psi is None:
        raise MergeError("psi heights required but not provided")

    for c_i in range(sigma) if ascending else range(sigma - 1, -1, -1):
        cls = range(bounds[c_i], bounds[c_i + 1])
        # to_fill[c_i] grows while it is read
        for gid in chain(to_fill[c_i], seed[c_i], cls if ascending else reversed(cls)):
            alive = members[gid]
            if gid >= fixed:
                if len(alive) == 1:
                    if placed_gid[alive[0]] != gid:
                        continue
                else:
                    alive = [v for v in alive if placed_gid[v] == gid]
                    if not alive:
                        continue
            out.append(alive)
            if not left:
                continue
            h = height[gid]
            base = nxt  # every id from base on is opened by this group
            first = 0 if ascending else base
            for u in alive:
                for v in fwd[u]:
                    if placed_gid[v] >= first:
                        continue
                    c_k = label[v]
                    # a tau=3 node has no predecessor of a smaller label, and
                    # one of its own label is tau=3 too, so only psi can bar v
                    if not ascending and psi[v] != (h + 1 if c_k == c_i else 1):
                        continue
                    j = open_gid[c_k]
                    if j < base:  # this group has opened none of this label yet
                        j = open_gid[c_k] = nxt
                        nxt += 1
                        to_fill[c_k].append(j)
                        members.append([v])
                        height.append(h + 1 if c_k == c_i else 1)
                    else:
                        members[j].append(v)
                    placed_gid[v] = j
                    left -= 1

    if not ascending:
        out.reverse()
    for grp in out:
        for u in grp:
            placed_gid[u] = nxt  # no group has id nxt
    if sum(map(len, out)) != n or placed_gid.count(nxt) != n:
        raise MergeError("merge did not place every node exactly once")
    return out
