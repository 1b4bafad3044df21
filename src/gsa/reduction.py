"""Per-node backward exploration and construction of the reduced graph.

Each exploration pins down a prefix gamma of the minimum string of one node
by expanding frontier sets backward: the next frontier keeps only the
predecessors with the least label, and among those the least tau class.
Predecessor rows are in label order, so one pass per step finds both, and it
leaves a row at the first label greater than the least seen so far; the
``edges_scanned`` count of a record is the number of edges read, not the
sum of the frontier's row lengths. The recursion direction decides when the
walk stops:

* type-3 direction: intermediate frontiers have tau=1, stop at tau >= 2;
* complementary (type-1) direction: intermediate frontiers have tau=3, stop
  at tau <= 2.

The records of one tau class are then sorted into a dense reduced alphabet
and wired into a smaller graph of the same shape, on which the driver
recurses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import inf
from operator import attrgetter

from .graph import LabeledGraph, make_graph


class ExplorationError(RuntimeError):
    """Internal invariant broken during exploration (inconsistent inputs)."""


class ExplorationRecord:
    """Result of one backward exploration.

    gamma is the discovered prefix (first character = the node's own label),
    t the tau class of the final frontier, frontier the final frontier nodes,
    and edges_scanned an instrumentation counter for the complexity tests.
    A level builds one per class node, so it is a plain ``__slots__`` class:
    a frozen dataclass sets each field through ``object.__setattr__`` and
    took about four times as long to build.
    """

    __slots__ = ("node", "gamma", "t", "frontier", "edges_scanned")

    def __init__(self, node: int, gamma: tuple[int, ...], t: int,
                 frontier: tuple[int, ...], edges_scanned: int) -> None:
        self.node = node
        self.gamma = gamma
        self.t = t
        self.frontier = frontier
        self.edges_scanned = edges_scanned


def explore(
    g: LabeledGraph,
    tau: Sequence[int],
    u: int,
    direction: int,
    visited: list[int],
) -> ExplorationRecord:
    """Expand frontiers backward from u until the stopping tau class.

    ``direction`` is 3 or 1 (the tau class being recursed on; it fixes the
    stop condition). With direction 3, nodes that already appeared in an
    earlier frontier are excluded from later ones, which bounds total work;
    with direction 1 the frontiers may legitimately revisit nodes and no
    subtraction happens.

    ``visited`` has one entry per node, none equal to ``u`` on entry. A
    direction-3 exploration sets ``visited[p] = u`` for each node p of its
    frontiers and skips a predecessor so stamped; direction 1 writes
    nothing. So explorations from distinct start nodes, as in one level,
    can share one list, filled with -1 once.

    Each step is one pass over the frontier's rows that keeps the least
    (label, tau) seen so far and its nodes. Rows are in label order, so a
    row is read from the front and left at the first label greater than
    the least so far. ``edges_scanned`` counts the edges read, not whole
    rows. The nodes of a frontier share one label, so in a deterministic
    graph no node precedes two of them and a step needs no duplicate check.
    """
    subtract = direction == 3
    label = g.label
    preds = g.preds

    frontier = [u]
    gamma = [label[u]]
    edges = 0
    for _step in range(g.n + 1):
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
        gamma.append(label[nxt[0]])
        t = tau[nxt[0]]
        if (t >= 2) if direction == 3 else (t <= 2):
            return ExplorationRecord(u, tuple(gamma), t, tuple(frontier), edges)
        if subtract:
            for p in frontier:
                visited[p] = u
    raise ExplorationError(f"exploration of node {u} did not stop within n+1 steps")


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
    records: Sequence[ExplorationRecord],
    direction: int,
) -> ReducedGraph:
    """Assemble the reduced graph from one tau class worth of records.

    Records with equal (gamma, t) collapse to one reduced character. A record
    that stopped at tau=2 becomes a self-loop (its string is the character
    repeated forever); otherwise the reduced predecessors are the final
    frontier nodes, which belong to the same tau class.

    The reduced alphabet orders the (gamma, t) pairs by the key
    ``gamma + (pad, t)``. In the type-3 direction a record whose gamma
    strictly extends another's represents the smaller string (its
    continuation starts below the shorter record's stop class), so gammas
    compare with a pad character above every real one; ties break t=2
    before t=3. In the complementary direction the extension is larger, so
    the pad sits below every real character and ties break t=1 before t=2.
    """
    n = g.n
    for r in records:
        if len(r.gamma) > n + 1:
            raise ExplorationError(f"record for node {r.node} has gamma longer than n+1")
    by_node = sorted(records, key=attrgetter("node"))
    parent_map = [-1] * n  # parent node id -> reduced id, -1 outside the class
    for i, r in enumerate(by_node):
        parent_map[r.node] = i

    pad = g.sigma if direction == 3 else -1
    node_keys = [r.gamma + (pad, r.t) for r in by_node]
    keys = sorted(set(node_keys))
    char_of = {k: i for i, k in enumerate(keys)}
    letter_key: list[tuple[tuple[int, ...], int]] = [(k[:-2], k[-1]) for k in keys]

    labels = [char_of[k] for k in node_keys]
    preds: list[list[int]] = []
    for i, r in enumerate(by_node):
        if r.t == 2:
            preds.append([i])
        else:
            ps = []
            for x in r.frontier:
                xi = parent_map[x]
                if xi < 0:
                    raise ExplorationError(
                        f"frontier node {x} of record {r.node} is outside the class"
                    )
                ps.append(xi)
            preds.append(ps)
    graph = make_graph(labels, preds, sigma=len(keys))
    return ReducedGraph(
        graph=graph,
        node_map=tuple(r.node for r in by_node),
        letter_key=tuple(letter_key),
    )
