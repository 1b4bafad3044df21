"""Backward exploration of one tau class and construction of the reduced graph.

Exploring a node pins down a prefix gamma of its minimum string by expanding
frontier sets backward: the next frontier keeps only the predecessors with
the least label, and among those the least tau class. Predecessor rows are in
label order, so one pass per step finds both, and it leaves a row at the
first label greater than the least seen so far; ``edges_scanned`` counts the
edges read, not the sum of the frontier's row lengths. The recursion
direction decides when the walk stops:

* type-3 direction: intermediate frontiers have tau=1, stop at tau >= 2;
* complementary (type-1) direction: intermediate frontiers have tau=3, stop
  at tau <= 2.

:func:`explore` walks every node of the class recursed on in one call and
returns each node's key ``gamma + (pad, t)`` and final frontier, with no
object per node. :func:`build_reduced_graph` numbers the class nodes in key
order, so equal keys become one reduced character, and wires them into a
smaller graph of the same shape, on which the driver recurses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import inf
from typing import NamedTuple

from .graph import LabeledGraph, make_graph


class ExplorationError(RuntimeError):
    """Internal invariant broken during exploration (inconsistent inputs)."""


class ClassExploration(NamedTuple):
    """The explorations of one tau class, in the order of its nodes.

    ``keys[i]`` is ``gamma + (pad, t)`` and ``frontiers[i]`` the final
    frontier of the i-th class node. ``edges_scanned`` is the class's total
    of edges read and ``peak_edges`` the most any one node read.
    """

    keys: list[tuple[int, ...]]
    frontiers: list[list[int]]
    edges_scanned: int
    peak_edges: int


def explore(
    g: LabeledGraph,
    tau: Sequence[int],
    class_nodes: Sequence[int],
    direction: int,
) -> ClassExploration:
    """Expand frontiers backward from each class node until the stop class.

    ``direction`` is 3 or 1 (the tau class being recursed on; it fixes the
    stop condition). With direction 3, nodes that already appeared in an
    earlier frontier of the same walk are excluded from later ones, which
    bounds total work; with direction 1 the frontiers may legitimately
    revisit nodes and no subtraction happens. One stamp list serves the
    whole class: the walk from u stamps the nodes of its frontiers with u,
    and the class nodes are distinct.

    A node's key is its gamma (first character = its own label) followed by
    a pad and the tau class t of its final frontier. Keys order the reduced
    alphabet. In the type-3 direction a gamma that strictly extends another
    represents the smaller string (its continuation starts below the shorter
    walk's stop class), so the pad is ``g.sigma``, above every real
    character, and t=2 sorts before t=3. In the complementary direction the
    extension is larger, so the pad is -1 and t=1 sorts before t=2.

    Each step is one pass over the frontier's rows that keeps the least
    (label, tau) seen so far and its nodes. Rows are in label order, so a
    row is read from the front and left at the first label greater than
    the least so far. The nodes of a frontier share one label, so in a
    deterministic graph no node precedes two of them and a step needs no
    duplicate check.
    """
    subtract = direction == 3
    label = g.label
    preds = g.preds
    pad = g.sigma if subtract else -1
    steps = range(g.n + 1)
    visited = [-1] * g.n
    keys: list[tuple[int, ...]] = []
    frontiers: list[list[int]] = []
    total = peak = 0
    for u in class_nodes:
        frontier = [u]
        gamma = [label[u]]
        edges = 0
        for _step in steps:
            best_label = best_tau = inf
            nxt: list[int] = []
            for x in frontier:
                for p in preds[x]:
                    edges += 1
                    lp = label[p]
                    if lp > best_label:
                        break
                    if visited[p] == u:
                        continue
                    tp = tau[p]
                    if lp < best_label or tp < best_tau:
                        best_label, best_tau, nxt = lp, tp, [p]
                    elif tp == best_tau:
                        nxt.append(p)
            if not nxt:
                raise ExplorationError(f"empty frontier while exploring node {u}")
            frontier = nxt
            gamma.append(best_label)
            if (best_tau >= 2) if subtract else (best_tau <= 2):
                break
            if subtract:
                for p in frontier:
                    visited[p] = u
        else:
            raise ExplorationError(f"exploration of node {u} did not stop within n+1 steps")
        gamma += (pad, best_tau)
        keys.append(tuple(gamma))
        frontiers.append(frontier)
        total += edges
        if edges > peak:
            peak = edges
    return ClassExploration(keys, frontiers, total, peak)


@dataclass(frozen=True)
class ReducedGraph:
    """Smaller graph over the recursed tau class.

    node_map maps reduced node id -> parent node id. letter_key records, per
    reduced character, the originating (gamma, t) pair.
    """

    graph: LabeledGraph
    node_map: tuple[int, ...]
    letter_key: tuple[tuple[tuple[int, ...], int], ...]


def build_reduced_graph(
    g: LabeledGraph,
    class_nodes: Sequence[int],
    keys: Sequence[tuple[int, ...]],
    frontiers: Sequence[Sequence[int]],
) -> ReducedGraph:
    """Assemble the reduced graph of one tau class from its explorations.

    ``keys`` and ``frontiers`` are :func:`explore`'s, one per node of
    ``class_nodes``, which ascend. Reduced nodes are numbered in key order,
    ties by parent id, and each run of equal keys, found by comparing
    neighbours in that order, becomes one reduced character. So reduced
    labels ascend with the id, and :func:`make_graph`'s sort by label
    finds them in order. A node whose key ends in t=2 becomes a self-loop
    (its string is the character repeated forever); otherwise its reduced
    predecessors are its final frontier, which lies in the same class.
    """
    n = g.n
    if keys and max(map(len, keys)) > n + 3:
        u = next(u for u, k in zip(class_nodes, keys) if len(k) > n + 3)
        raise ExplorationError(f"key of node {u} has gamma longer than n+1")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    node_map = tuple(class_nodes[i] for i in order)
    parent_map = [-1] * n  # parent node id -> reduced id, -1 outside the class
    for j, u in enumerate(node_map):
        parent_map[u] = j

    letter_key: list[tuple[tuple[int, ...], int]] = []
    labels: list[int] = []
    preds: list[Sequence[int]] = []
    prev = None
    for j, i in enumerate(order):
        k = keys[i]
        if k != prev:
            letter_key.append((k[:-2], k[-1]))
            prev = k
        labels.append(len(letter_key) - 1)
        if k[-1] == 2:
            preds.append((j,))
            continue
        ps = [parent_map[x] for x in frontiers[i]]
        if -1 in ps:
            x = next(x for x in frontiers[i] if parent_map[x] < 0)
            raise ExplorationError(
                f"frontier node {x} of node {node_map[j]} is outside the class"
            )
        preds.append(ps)
    graph = make_graph(labels, preds, sigma=len(letter_key))
    return ReducedGraph(graph=graph, node_map=node_map, letter_key=tuple(letter_key))
