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
(tau=3). The same peel gives the run heights of the direction-1 merge. Each
phase touches every edge a bounded number of times, so the classification
runs in O(|E|).
"""

from __future__ import annotations

from collections.abc import Sequence

from .graph import LabeledGraph


def equal_label_heights(g: LabeledGraph, active: Sequence[bool]) -> list[int]:
    """Heights of the acyclic equal-label chains among the active nodes.

    h[v] = 1 + max h over v's active equal-label predecessors, or 1 when
    there are none. The equal-label edges between active nodes are peeled in
    topological order (Kahn): a node is peeled once all those predecessors
    are, and a list that grows while it is read is the queue. A node whose
    backward equal-label walk through active nodes reaches a cycle is never
    peeled and gets 0, as does every inactive node.
    """
    n = g.n
    label = g.label
    succs = g.succs
    indeg = [0] * n
    for u in range(n):
        if active[u]:
            lu = label[u]
            for v in succs[u]:
                if label[v] == lu and active[v]:
                    indeg[v] += 1
    h = [0] * n  # until v is peeled: the greatest h of its peeled predecessors
    queue = [v for v in range(n) if active[v] and not indeg[v]]
    for u in queue:
        hu = h[u] + 1
        h[u] = hu
        lu = label[u]
        for v in succs[u]:
            if label[v] == lu and active[v]:
                if h[v] < hu:
                    h[v] = hu
                indeg[v] -= 1
                if not indeg[v]:
                    queue.append(v)
    return [0 if d else x for x, d in zip(h, indeg)]


def compute_tau(g: LabeledGraph) -> list[int]:
    """Return tau[u] in {1,2,3} for every node.

    Phase 1 marks tau=1 nodes: seeds are nodes with a strictly smaller-labeled
    predecessor (rows are in label order, so ``preds[v][0]`` decides), and
    the property propagates forward along equal-label edges.
    Phase 2 peels the equal-label edges among the other nodes: a node left
    unpeeled reaches an equal-label cycle backward and is tau=2, a peeled
    one is tau=3.
    """
    n = g.n
    label = g.label
    preds = g.preds
    succs = g.succs

    one = [False] * n
    queue = [v for v in range(n) if preds[v] and label[preds[v][0]] < label[v]]
    for v in queue:
        one[v] = True
    for u in queue:
        lu = label[u]
        for v in succs[u]:
            if label[v] == lu and not one[v]:
                one[v] = True
                queue.append(v)

    h = equal_label_heights(g, [not x for x in one])
    return [1 if one[u] else 3 if h[u] else 2 for u in range(n)]
