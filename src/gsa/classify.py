"""Classify every node by how its minimum string compares with its own tail.

For each node u let min_u be the smallest right-infinite string readable by
walking edges backward from u. Define tau(u) as

* 1 if min_u with its first character dropped is strictly smaller than min_u
  (equivalently min_u < label(u)^omega),
* 2 if min_u = label(u)^omega,
* 3 otherwise.

Both phases below touch every edge a bounded number of times, so the whole
classification runs in O(|E|).
"""

from __future__ import annotations

from collections import deque

from .graph import LabeledGraph


def compute_tau(g: LabeledGraph) -> list[int]:
    """Return tau[u] in {1,2,3} for every node.

    Phase 1 marks tau=1 nodes: seeds are nodes with a strictly smaller-labeled
    predecessor (rows are in label order, so ``preds[v][0]`` decides), and
    the property propagates forward along equal-label edges.
    Phase 2 decides 2 vs 3 for the rest: a node is tau=2 exactly when walking
    equal-label edges backward can reach a repeated node (an equal-label
    cycle). A depth-first search with memoized verdicts finds this; whenever a
    cycle or an already-known tau=2 node is hit, the entire current path is
    tau=2 and the search restarts elsewhere, so no node is pushed twice.
    """
    n = g.n
    label = g.label
    preds = g.preds
    succs = g.succs

    one = [False] * n
    queue: deque[int] = deque()
    for v in range(n):
        ps = preds[v]
        if ps and label[ps[0]] < label[v]:
            one[v] = True
            queue.append(v)
    while queue:
        u = queue.popleft()
        lu = label[u]
        for v in succs[u]:
            if label[v] == lu and not one[v]:
                one[v] = True
                queue.append(v)

    verdict = [0] * n  # 0 unknown, else 2 or 3
    onstack = [False] * n
    for s in range(n):
        if one[s] or verdict[s]:
            continue
        stack: list[tuple[int, int]] = [(s, 0)]  # (node, next pred index)
        onstack[s] = True
        while stack:
            u, i = stack[-1]
            lu = label[u]
            ps = preds[u]
            pushed = False
            aborted = False
            while i < len(ps):
                p = ps[i]
                i += 1
                if label[p] != lu or one[p] or verdict[p] == 3:
                    continue
                if verdict[p] == 2 or onstack[p]:
                    # everything on the current path reaches the cycle
                    for w, _ in stack:
                        verdict[w] = 2
                        onstack[w] = False
                    stack.clear()
                    aborted = True
                    break
                stack[-1] = (u, i)
                stack.append((p, 0))
                onstack[p] = True
                pushed = True
                break
            if aborted or pushed:
                continue
            stack.pop()
            onstack[u] = False
            verdict[u] = 3

    return [1 if one[u] else verdict[u] for u in range(n)]

