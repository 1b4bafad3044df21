"""Backward explorations and the reduced graph."""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import pytest
from hypothesis import given, settings

import gsa.driver
from gsa import gen, make_graph, max_partition, min_partition, minmax_partition
from gsa import transpose_alphabet, validate
from gsa.classify import compute_tau
from gsa.driver import EngineStats
from gsa.graph import trim_for_kinds
from gsa.oracle import oracle_partition, oracle_prefixes
from gsa.reduction import (
    ExplorationError,
    ReducedGraph,
    build_reduced_graph,
    explore,
)

from conftest import generated_graphs, small_corpus


class ExplorationRecord(NamedTuple):
    """Result of one per-node exploration of the references below.

    gamma is the discovered prefix (first character = the node's own label),
    t the tau class of the final frontier, frontier the final frontier nodes,
    and edges_scanned the number of edges read.
    """

    node: int
    gamma: tuple[int, ...]
    t: int
    frontier: tuple[int, ...]
    edges_scanned: int


def _explore_one(g, tau, u, direction, visited):
    """The former per-node explore, kept as the reference for the class pass.

    ``visited`` has one entry per node, none equal to ``u`` on entry. A
    direction-3 exploration sets ``visited[p] = u`` for each node p of its
    frontiers and skips a predecessor so stamped; direction 1 writes
    nothing. So explorations from distinct start nodes can share one list.
    """
    subtract = direction == 3
    label = g.label
    preds = g.preds

    frontier = [u]
    gamma = [label[u]]
    edges = 0
    for _step in range(g.n + 1):
        best_label = best_tau = inf
        nxt = []
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


def _reduce_by_node(g, records, direction):
    """The former build_reduced_graph, kept as the reference: reduced nodes
    numbered by parent id, letters looked up in a dict of the sorted keys."""
    n = g.n
    for r in records:
        if len(r.gamma) > n + 1:
            raise ExplorationError(f"record for node {r.node} has gamma longer than n+1")
    by_node = sorted(records, key=lambda r: r.node)
    parent_map = [-1] * n
    for i, r in enumerate(by_node):
        parent_map[r.node] = i
    pad = g.sigma if direction == 3 else -1
    node_keys = [r.gamma + (pad, r.t) for r in by_node]
    keys = sorted(set(node_keys))
    char_of = {k: i for i, k in enumerate(keys)}
    preds = []
    for r in by_node:
        if r.t == 2:
            preds.append([parent_map[r.node]])
        else:
            ps = [parent_map[x] for x in r.frontier]
            if min(ps) < 0:
                raise ExplorationError(f"frontier of record {r.node} is outside the class")
            preds.append(ps)
    graph = make_graph([char_of[k] for k in node_keys], preds, sigma=len(keys))
    return ReducedGraph(
        graph=graph,
        node_map=tuple(r.node for r in by_node),
        letter_key=tuple((k[:-2], k[-1]) for k in keys),
    )


class _FourPassScratch:
    """The former scratch: tick-stamped arrays for the nodes of earlier
    frontiers and for the nodes pooled in one step."""

    def __init__(self, n):
        self.visited = [0] * n
        self.seen = [0] * n
        self.tick = 0

    def next_tick(self):
        self.tick += 1
        return self.tick


def _explore_four_pass(g, tau, u, direction, scratch=None):
    """The explore before the one-pass rewrite, kept as its reference.

    Each step pools the unvisited predecessors of the whole frontier, then
    takes the best label, filters by it, takes the best tau and filters
    again.
    """
    if scratch is None:
        scratch = _FourPassScratch(g.n)
    subtract = direction == 3
    label = g.label
    preds = g.preds
    visited = scratch.visited
    seen = scratch.seen
    vt = scratch.next_tick()

    frontier = [u]
    gamma = [label[u]]
    edges = 0
    for _step in range(g.n + 1):
        st = scratch.next_tick()
        pool = []
        for x in frontier:
            for p in preds[x]:
                edges += 1
                if visited[p] == vt or seen[p] == st:
                    continue
                seen[p] = st
                pool.append(p)
        if not pool:
            raise ExplorationError(f"empty frontier while exploring node {u}")
        best_label = min(label[p] for p in pool)
        sel = [p for p in pool if label[p] == best_label]
        best_tau = min(tau[p] for p in sel)
        frontier = [p for p in sel if tau[p] == best_tau]
        gamma.append(best_label)
        if (best_tau >= 2) if direction == 3 else (best_tau <= 2):
            return ExplorationRecord(u, tuple(gamma), best_tau, tuple(frontier), edges)
        if subtract:
            for p in frontier:
                visited[p] = vt
    raise ExplorationError(f"exploration of node {u} did not stop within n+1 steps")


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except ExplorationError as e:
        return None, str(e)


def _walk(g, tau, u, direction):
    """explore on the one-node class [u], as a record."""
    ex = explore(g, tau, [u], direction)
    (key,), (frontier,) = ex.keys, ex.frontiers
    pad = g.sigma if direction == 3 else -1
    assert key[-2] == pad and ex.peak_edges == ex.edges_scanned
    return ExplorationRecord(u, key[:-2], key[-1], tuple(frontier), ex.edges_scanned)


def _class_records(g, tau, class_nodes, direction):
    """explore on a whole class, as one record per class node."""
    ex = explore(g, tau, class_nodes, direction)
    return [
        ExplorationRecord(u, k[:-2], k[-1], tuple(f), -1)
        for u, k, f in zip(class_nodes, ex.keys, ex.frontiers)
    ]


def _reduce(g, recs, direction):
    """build_reduced_graph on records given in any order."""
    pad = g.sigma if direction == 3 else -1
    recs = sorted(recs, key=lambda r: r.node)
    return build_reduced_graph(
        g,
        [r.node for r in recs],
        [r.gamma + (pad, r.t) for r in recs],
        [r.frontier for r in recs],
    )


def _labels_by_parent(rg):
    """The reduced label of each class node, in parent-id order."""
    return tuple(c for _u, c in sorted(zip(rg.node_map, rg.graph.label)))


def _assert_explore_matches_four_pass(g):
    """Every node of g and of transpose_alphabet(g), in both directions.

    The transposed graph stands for the max sense, which the engine runs as
    the min sense on it. Each (graph, direction) shares one scratch for the
    reference across its explorations, as one level of the engine does.
    """
    for h in (g, transpose_alphabet(g)):
        tau = compute_tau(h)
        gt = trim_for_kinds(h)
        for direction in (3, 1):
            ref_sc = _FourPassScratch(h.n)
            for u in range(h.n):
                r, err = _outcome(_walk, gt, tau, u, direction)
                ref, ref_err = _outcome(_explore_four_pass, gt, tau, u, direction, ref_sc)
                where = (h.label, h.preds, direction, u)
                assert err == ref_err, where
                if ref is None:
                    continue
                assert (r.node, r.gamma, r.t) == (ref.node, ref.gamma, ref.t), where
                assert r.frontier == ref.frontier, where
                assert len(set(r.frontier)) == len(r.frontier), where
                assert r.edges_scanned <= ref.edges_scanned, where


def test_explore_matches_four_pass_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        _assert_explore_matches_four_pass(g)


@settings(deadline=None, max_examples=80)
@given(g=generated_graphs())
def test_explore_matches_four_pass_on_generators(g):
    _assert_explore_matches_four_pass(g)


def _assert_pass_matches_reference(g, tau, class_nodes, direction):
    """explore and build_reduced_graph on one class against the per-node
    reference: keys, frontiers, total and peak edges, and the reduced graph
    after renumbering. Returns the pass's reduced graph."""
    ex = explore(g, tau, class_nodes, direction)
    visited = [-1] * g.n
    refs = [_explore_one(g, tau, u, direction, visited) for u in class_nodes]
    pad = g.sigma if direction == 3 else -1
    assert ex.keys == [r.gamma + (pad, r.t) for r in refs]
    assert [tuple(f) for f in ex.frontiers] == [r.frontier for r in refs]
    assert ex.edges_scanned == sum(r.edges_scanned for r in refs)
    assert ex.peak_edges == max(r.edges_scanned for r in refs)

    rg = build_reduced_graph(g, class_nodes, ex.keys, ex.frontiers)
    ref = _reduce_by_node(g, refs, direction)
    assert rg.letter_key == ref.letter_key
    assert rg.graph.sigma == ref.graph.sigma
    assert sorted(rg.node_map) == list(ref.node_map)
    # numbered in key order, ties by parent id
    label = rg.graph.label
    assert list(label) == sorted(label)
    assert all(rg.node_map[j] < rg.node_map[j + 1]
               for j in range(len(label) - 1) if label[j] == label[j + 1])
    ref_id = {u: i for i, u in enumerate(ref.node_map)}
    for j, u in enumerate(rg.node_map):
        i = ref_id[u]
        assert label[j] == ref.graph.label[i]
        assert sorted(rg.node_map[x] for x in rg.graph.preds[j]) == sorted(
            ref.node_map[x] for x in ref.graph.preds[i]
        )
    assert validate(rg.graph).ok
    return rg


def _engine_levels_match_reference(graphs, mp):
    """Run the three partition calls on each graph, checking every level's
    explore and build_reduced_graph against the reference as they run.
    Returns the number of levels checked."""
    levels = []

    def recorder(g, tau, class_nodes, direction):
        _assert_pass_matches_reference(g, tau, class_nodes, direction)
        levels.append(direction)
        return explore(g, tau, class_nodes, direction)

    mp.setattr(gsa.driver, "explore", recorder)
    for g in graphs:
        for call in (min_partition, max_partition, minmax_partition):
            call(g)
    return len(levels)


def test_class_pass_matches_reference_at_every_level_exhaustively(monkeypatch):
    assert _engine_levels_match_reference(small_corpus(3, 3), monkeypatch) > 0


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_class_pass_matches_reference_at_every_level_on_generators(g):
    with pytest.MonkeyPatch.context() as mp:
        _engine_levels_match_reference([g], mp)


def test_class_pass_matches_reference_at_depth(monkeypatch):
    g = gen("random", 5000, 4, seed=1, density=0.3)
    stats = EngineStats()
    min_partition(g, stats=stats)
    assert stats.depth == 8
    assert _engine_levels_match_reference([g], monkeypatch) >= 3 * 8


def test_class_pass_shares_one_stamp_list(fig_graph):
    # walks from distinct nodes in one call see no stamp of another walk
    for h in (fig_graph, transpose_alphabet(fig_graph)):
        tau = compute_tau(h)
        gt = trim_for_kinds(h)
        for direction in (3, 1):
            nodes = [u for u in range(h.n) if tau[u] == direction]
            ex = explore(gt, tau, nodes, direction)
            alone = [explore(gt, tau, [u], direction) for u in nodes]
            assert ex.keys == [a.keys[0] for a in alone]
            assert ex.frontiers == [a.frontiers[0] for a in alone]
            assert ex.edges_scanned == sum(a.edges_scanned for a in alone)


def test_fig_type3_exploration(fig_graph):
    tau = compute_tau(fig_graph)
    gt = trim_for_kinds(fig_graph)
    ex = explore(gt, tau, [5], 3)
    # min_5 = a b # ...; the walk stops at the #-looped node
    assert ex.keys == [(1, 2, 0, fig_graph.sigma, 2)]
    r = _walk(gt, tau, 5, 3)
    assert r.gamma == (1, 2, 0)
    assert r.t == 2
    assert r.frontier == (0,)


def test_explore_stamps_visited_only_in_direction_3(fig_graph):
    # the per-node reference's stamp contract, which the class pass keeps
    # in one list per call (see test_class_pass_shares_one_stamp_list)
    tau = compute_tau(fig_graph)
    gt = trim_for_kinds(fig_graph)
    visited = [-1] * fig_graph.n
    _explore_one(gt, tau, 5, 3, visited)
    # node 2 formed the one frontier before the walk stopped at node 0
    assert visited == [-1, -1, 5, -1, -1, -1, -1]
    visited = [-1] * fig_graph.n
    _explore_one(fig_graph, tau, 4, 1, visited)
    assert visited == [-1] * fig_graph.n
    assert _walk(gt, tau, 5, 3) == _explore_one(gt, tau, 5, 3, [-1] * fig_graph.n)
    assert _walk(fig_graph, tau, 4, 1) == _explore_one(fig_graph, tau, 4, 1, [-1] * fig_graph.n)


def test_two_cycle_type3_exploration():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    tau = compute_tau(g)
    r = _walk(trim_for_kinds(g), tau, 0, 3)
    assert r.gamma == (0, 1, 0)
    assert r.t == 3
    assert r.frontier == (0,)


def test_immediate_tau2_stop():
    # node 0's only predecessor is the larger-labeled tau=2 node
    g = make_graph([0, 1], [[1], [1]], sigma=2)
    tau = compute_tau(g)
    assert tau == [3, 2]
    r = _walk(trim_for_kinds(g), tau, 0, 3)
    assert r.gamma == (0, 1) and r.t == 2 and r.frontier == (1,)


def test_fig_type1_explorations(fig_graph):
    tau = compute_tau(fig_graph)
    r4 = _walk(fig_graph, tau, 4, 1)
    assert r4.gamma == (3, 1) and r4.t == 1 and r4.frontier == (1,)
    r1 = _walk(fig_graph, tau, 1, 1)
    assert r1.gamma == (1, 0) and r1.t == 2 and r1.frontier == (0,)
    # the pad sits below every character in the type-1 direction
    ex = explore(fig_graph, tau, [1, 4], 1)
    assert ex.keys == [(1, 0, -1, 2), (3, 1, -1, 1)]


def test_type1_walks_through_tau3_chain():
    # node 3's walk passes two tau=3 nodes before stopping: min_3 = 2113^ω
    labels = [3, 1, 1, 2, 0]
    preds = [[0], [0], [1], [2], [4]]
    g = make_graph(labels, preds, sigma=4)
    tau = compute_tau(g)
    assert tau == [2, 3, 3, 1, 2]
    r = _walk(g, tau, 3, 1)
    assert r.gamma == (2, 1, 1, 3)
    assert r.t == 2 and r.frontier == (0,)
    pfx = oracle_prefixes(g, "min", g.n + 2)[3]
    assert r.gamma == pfx[: len(r.gamma)]


def test_gamma_matches_oracle_prefix_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        rows = oracle_prefixes(g, "min", g.n + 2)
        recs = _class_records(gt, tau, [u for u in range(g.n) if tau[u] == 3], 3)
        recs += _class_records(g, tau, [u for u in range(g.n) if tau[u] == 1], 1)
        for r in recs:
            u = r.node
            assert r.gamma == rows[u][: len(r.gamma)], (g.label, g.preds, u)
            assert 2 <= len(r.gamma) <= g.n + 1
            assert r.gamma[0] == g.label[u]
            # frontier is label- and tau-pure and matches the last character
            assert len({g.label[x] for x in r.frontier}) == 1
            assert {tau[x] for x in r.frontier} == {r.t}
            assert g.label[r.frontier[0]] == r.gamma[-1]


def test_gamma_monotone_by_direction(exhaustive_graphs):
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        for r in _class_records(gt, tau, [u for u in range(g.n) if tau[u] == 3], 3):
            body = r.gamma[1:]
            assert all(a >= b for a, b in zip(body, body[1:]))
        for r in _class_records(g, tau, [u for u in range(g.n) if tau[u] == 1], 1):
            body = r.gamma[1:]
            assert all(a <= b for a, b in zip(body, body[1:]))


def test_build_reduced_fig(fig_graph):
    tau = compute_tau(fig_graph)
    gt = trim_for_kinds(fig_graph)
    ex = explore(gt, tau, [5], 3)
    rg = build_reduced_graph(gt, [5], ex.keys, ex.frontiers)
    assert rg.node_map == (5,)
    assert rg.letter_key == (((1, 2, 0), 2),)
    assert rg.graph.preds == ((0,),)  # self-loop: t=2
    assert validate(rg.graph).ok


def _rec(node, gamma, t, frontier=()):
    return ExplorationRecord(node, tuple(gamma), t, tuple(frontier), 0)


def test_tie_break_type3_direction():
    recs = [_rec(0, (0, 1), 3, (1,)), _rec(1, (0, 1), 2)]
    rg = _reduce(make_graph([0, 1], [[1], [0]], sigma=2), recs, 3)
    # t=2 before t=3
    assert rg.letter_key == (((0, 1), 2), ((0, 1), 3))
    assert _labels_by_parent(rg) == (1, 0)
    # numbered in key order
    assert rg.node_map == (1, 0) and rg.graph.label == (0, 1)


def test_strict_prefix_sorts_smaller_in_type3():
    recs = [_rec(0, (0, 1), 3, (1,)), _rec(1, (0, 1, 0), 3, (0,))]
    rg = _reduce(make_graph([0, 1], [[1], [0]], sigma=2), recs, 3)
    # the longer gamma "010" sorts before its strict prefix "01"
    assert rg.letter_key[0] == ((0, 1, 0), 3)
    assert _labels_by_parent(rg) == (1, 0)


def test_prefix_sorts_smaller_in_type1():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    recs = [_rec(0, (1, 1), 1, (1,)), _rec(1, (1, 1, 2), 1, (0,))]
    rg = _reduce(g, recs, 1)
    # normal lexicographic order: the strict prefix is smaller
    assert rg.letter_key[0] == ((1, 1), 1)


def test_tie_break_type1_direction():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    recs = [_rec(0, (1, 0), 2), _rec(1, (1, 0), 1, (1,))]
    rg = _reduce(g, recs, 1)
    # t=1 before t=2
    assert rg.letter_key == (((1, 0), 1), ((1, 0), 2))


def test_equal_records_collapse_to_one_character():
    g = make_graph([0, 0, 1], [[1], [0], [0, 1]], sigma=2)
    recs = [_rec(0, (0, 1), 2), _rec(1, (0, 1), 2)]
    rg = _reduce(g, recs, 3)
    assert rg.graph.sigma == 1
    assert rg.graph.label == (0, 0)
    # equal keys keep parent-id order
    assert rg.node_map == (0, 1)


def test_order_preservation_exhaustively(exhaustive_graphs):
    # class-node minima order in the parent equals reduced minima order
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        nodes = [u for u in range(g.n) if tau[u] == 3]
        if len(nodes) < 2:
            continue
        gt = trim_for_kinds(g)
        ex = explore(gt, tau, nodes, 3)
        rg = build_reduced_graph(gt, nodes, ex.keys, ex.frontiers)
        assert validate(rg.graph).ok
        parent_rank = oracle_partition(g, "min").rank
        reduced_rank = oracle_partition(rg.graph, "min").rank
        nodes = list(rg.node_map)
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                assert (parent_rank[u] < parent_rank[v]) == (
                    reduced_rank[i] < reduced_rank[j]
                ), (g.label, g.preds, u, v)


def test_reduced_self_loops_iff_t2(exhaustive_graphs):
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        nodes = [u for u in range(g.n) if tau[u] == 3]
        if not nodes:
            continue
        ex = explore(gt, tau, nodes, 3)
        rg = build_reduced_graph(gt, nodes, ex.keys, ex.frontiers)
        recs = {r.node: r for r in _class_records(gt, tau, nodes, 3)}
        for i, u in enumerate(rg.node_map):
            r = recs[u]
            if r.t == 2:
                assert rg.graph.preds[i] == (i,)
            elif i in rg.graph.preds[i]:
                # a t=3 self-loop only arises from the node's own frontier
                assert r.node in r.frontier


def test_edge_work_bound_on_trimmed(exhaustive_graphs):
    for g in exhaustive_graphs + [
        make_graph([0, 1], [[1], [0]], sigma=2),
    ]:
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        nodes = [u for u in range(g.n) if tau[u] == 3]
        if nodes:
            # the most edges any one node's walk read
            assert explore(gt, tau, nodes, 3).peak_edges <= 2 * g.n


def test_rejects_overlong_record(fig_graph):
    with pytest.raises(ExplorationError):
        _reduce(fig_graph, [_rec(5, tuple(range(20)), 2)], 3)
