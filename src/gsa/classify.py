"""Classify every node by how its minimum string compares with its own tail.

For each node u let min_u be the smallest right-infinite string readable by
walking edges backward from u. Define tau(u) as

* 1 if min_u with its first character dropped is strictly smaller than min_u
  (equivalently min_u < label(u)^omega),
* 2 if min_u = label(u)^omega,
* 3 otherwise.

A node that is not tau=1 has no smaller-labeled predecessor, so min_u begins
with a run of label(u), and one topological peel of the equal-label edges
(:func:`equal_label_heights`) measures that run: infinite (tau=2) or finite
(tau=3). The same peel gives the run heights of the direction-1 merge.
Rows are sorted by label, so a non-tau=1 node's equal-label predecessors
lead its ``preds`` row, and determinism leaves every node at most one
equal-label successor: reading only those runs, the classification runs in
O(n + equal-label edges) and never builds a successor row.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress

from .graph import LabeledGraph


def equal_label_heights(g: LabeledGraph, active: Sequence[bool]) -> list[int]:
    """Heights of the acyclic equal-label chains among the active nodes.

    h[v] = 1 + max h over v's active equal-label predecessors, or 1 when
    there are none. No active node may have a smaller-labeled predecessor,
    so those predecessors lead v's row, and each records v as its one
    equal-label successor ``nxt``. The peel follows ``nxt`` in topological
    order (Kahn); a list that grows while it is read is the queue. A node
    whose backward equal-label walk through active nodes reaches a cycle is
    never peeled and gets 0, as does every inactive node.
    """
    n = g.n
    label = g.label
    preds = g.preds
    nxt = [-1] * n
    indeg = [0] * n
    for v in compress(range(n), active):
        lv = label[v]
        for p in preds[v]:
            if label[p] != lv:
                break
            if active[p]:
                nxt[p] = v
                indeg[v] += 1
    h = [0] * n  # until v is peeled: the greatest h of its peeled predecessors
    queue = [v for v in compress(range(n), active) if not indeg[v]]
    for u in queue:
        hu = h[u] = h[u] + 1
        v = nxt[u]
        if v >= 0:
            if h[v] < hu:
                h[v] = hu
            indeg[v] -= 1
            if not indeg[v]:
                queue.append(v)
    return [0 if d else x for x, d in zip(h, indeg)]


def compute_tau(g: LabeledGraph) -> list[int]:
    """Return tau[u] in {1,2,3} for every node.

    Phase 1 marks tau=1 nodes: seeds have a strictly smaller-labeled
    predecessor (rows are in label order, so ``preds[v][0]`` decides). Every
    other node v is ``nxt[p]``, the one equal-label successor, of each p in
    its row's leading equal-label run, and tau=1 spreads along ``nxt``.
    Phase 2 peels the equal-label edges among the rest: a node left unpeeled
    reaches an equal-label cycle backward and is tau=2, a peeled one tau=3.

    ``g`` must be valid, and is not checked here: the engine validates once
    per call, not per level, and so does the CLI's ``tau`` command.
    """
    n = g.n
    label = g.label
    nxt = [-1] * n
    seeds = []
    for v, ps in enumerate(g.preds):
        lv = label[v]
        if ps and label[ps[0]] < lv:
            seeds.append(v)
        else:
            for p in ps:
                if label[p] != lv:
                    break
                nxt[p] = v
    one = [False] * n
    for v in seeds:
        while v >= 0 and not one[v]:
            one[v] = True
            v = nxt[v]
    h = equal_label_heights(g, [not x for x in one])
    return [1 if one[u] else 3 if h[u] else 2 for u in range(n)]
