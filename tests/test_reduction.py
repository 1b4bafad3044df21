"""Backward explorations and the reduced graph."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from gsa import make_graph, transpose_alphabet, validate
from gsa.classify import compute_tau
from gsa.graph import trim_for_kinds
from gsa.oracle import oracle_partition, oracle_prefixes
from gsa.reduction import (
    ExplorationError,
    ExplorationRecord,
    build_reduced_graph,
    explore,
)

from conftest import generated_graphs


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
    """The former explore, kept as the reference for the one-pass rewrite.

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


def _assert_explore_matches_four_pass(g):
    """Every node of g and of transpose_alphabet(g), in both directions.

    The transposed graph stands for the max sense, which the engine runs as
    the min sense on it. Each (graph, direction) shares one stamp list, and
    one scratch for the reference, across its explorations, as one level of
    the engine does.
    """
    for h in (g, transpose_alphabet(g)):
        tau = compute_tau(h)
        gt = trim_for_kinds(h)
        for direction in (3, 1):
            visited, ref_sc = [-1] * h.n, _FourPassScratch(h.n)
            for u in range(h.n):
                r, err = _outcome(explore, gt, tau, u, direction, visited)
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


def test_fig_type3_exploration(fig_graph):
    tau = compute_tau(fig_graph)
    gt = trim_for_kinds(fig_graph)
    r = explore(gt, tau, 5, 3, [-1] * fig_graph.n)
    # min_5 = a b # ...; the walk stops at the #-looped node
    assert r.gamma == (1, 2, 0)
    assert r.t == 2
    assert r.frontier == (0,)


def test_explore_stamps_visited_only_in_direction_3(fig_graph):
    tau = compute_tau(fig_graph)
    gt = trim_for_kinds(fig_graph)
    visited = [-1] * fig_graph.n
    explore(gt, tau, 5, 3, visited)
    # node 2 formed the one frontier before the walk stopped at node 0
    assert visited == [-1, -1, 5, -1, -1, -1, -1]
    visited = [-1] * fig_graph.n
    explore(fig_graph, tau, 4, 1, visited)
    assert visited == [-1] * fig_graph.n


def test_two_cycle_type3_exploration():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    tau = compute_tau(g)
    r = explore(trim_for_kinds(g), tau, 0, 3, [-1] * g.n)
    assert r.gamma == (0, 1, 0)
    assert r.t == 3
    assert r.frontier == (0,)


def test_immediate_tau2_stop():
    # node 0's only predecessor is the larger-labeled tau=2 node
    g = make_graph([0, 1], [[1], [1]], sigma=2)
    tau = compute_tau(g)
    assert tau == [3, 2]
    r = explore(trim_for_kinds(g), tau, 0, 3, [-1] * g.n)
    assert r.gamma == (0, 1) and r.t == 2 and r.frontier == (1,)


def test_fig_type1_explorations(fig_graph):
    tau = compute_tau(fig_graph)
    r4 = explore(fig_graph, tau, 4, 1, [-1] * fig_graph.n)
    assert r4.gamma == (3, 1) and r4.t == 1 and r4.frontier == (1,)
    r1 = explore(fig_graph, tau, 1, 1, [-1] * fig_graph.n)
    assert r1.gamma == (1, 0) and r1.t == 2 and r1.frontier == (0,)


def test_type1_walks_through_tau3_chain():
    # node 3's walk passes two tau=3 nodes before stopping: min_3 = 2113^ω
    labels = [3, 1, 1, 2, 0]
    preds = [[0], [0], [1], [2], [4]]
    g = make_graph(labels, preds, sigma=4)
    tau = compute_tau(g)
    assert tau == [2, 3, 3, 1, 2]
    r = explore(g, tau, 3, 1, [-1] * g.n)
    assert r.gamma == (2, 1, 1, 3)
    assert r.t == 2 and r.frontier == (0,)
    pfx = oracle_prefixes(g, "min", g.n + 2)[3]
    assert r.gamma == pfx[: len(r.gamma)]


def test_gamma_matches_oracle_prefix_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        rows = oracle_prefixes(g, "min", g.n + 2)
        visited = [-1] * g.n
        for u in range(g.n):
            if tau[u] == 3:
                r = explore(gt, tau, u, 3, visited)
            elif tau[u] == 1:
                r = explore(g, tau, u, 1, visited)
            else:
                continue
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
        visited = [-1] * g.n
        for u in range(g.n):
            if tau[u] == 3:
                r = explore(gt, tau, u, 3, visited)
                body = r.gamma[1:]
                assert all(a >= b for a, b in zip(body, body[1:]))
            elif tau[u] == 1:
                r = explore(g, tau, u, 1, visited)
                body = r.gamma[1:]
                assert all(a <= b for a, b in zip(body, body[1:]))


def test_build_reduced_fig(fig_graph):
    tau = compute_tau(fig_graph)
    gt = trim_for_kinds(fig_graph)
    r = explore(gt, tau, 5, 3, [-1] * fig_graph.n)
    rg = build_reduced_graph(gt, [r], 3)
    assert rg.node_map == (5,)
    assert rg.letter_key == (((1, 2, 0), 2),)
    assert rg.graph.preds == ((0,),)  # self-loop: t=2
    assert validate(rg.graph).ok


def _rec(node, gamma, t, frontier=()):
    return ExplorationRecord(node, tuple(gamma), t, tuple(frontier), 0)


def test_tie_break_type3_direction():
    recs = [_rec(0, (0, 1), 3, (1,)), _rec(1, (0, 1), 2)]
    rg = build_reduced_graph(make_graph([0, 1], [[1], [0]], sigma=2), recs, 3)
    # t=2 before t=3
    assert rg.letter_key == (((0, 1), 2), ((0, 1), 3))
    assert rg.graph.label == (1, 0)


def test_strict_prefix_sorts_smaller_in_type3():
    recs = [_rec(0, (0, 1), 3, (1,)), _rec(1, (0, 1, 0), 3, (0,))]
    rg = build_reduced_graph(make_graph([0, 1], [[1], [0]], sigma=2), recs, 3)
    # the longer gamma "010" sorts before its strict prefix "01"
    assert rg.letter_key[0] == ((0, 1, 0), 3)
    assert rg.graph.label == (1, 0)


def test_prefix_sorts_smaller_in_type1():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    recs = [_rec(0, (1, 1), 1, (1,)), _rec(1, (1, 1, 2), 1, (0,))]
    rg = build_reduced_graph(g, recs, 1)
    # normal lexicographic order: the strict prefix is smaller
    assert rg.letter_key[0] == ((1, 1), 1)


def test_tie_break_type1_direction():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    recs = [_rec(0, (1, 0), 2), _rec(1, (1, 0), 1, (1,))]
    rg = build_reduced_graph(g, recs, 1)
    # t=1 before t=2
    assert rg.letter_key == (((1, 0), 1), ((1, 0), 2))


def test_equal_records_collapse_to_one_character():
    g = make_graph([0, 0, 1], [[1], [0], [0, 1]], sigma=2)
    recs = [_rec(0, (0, 1), 2), _rec(1, (0, 1), 2)]
    rg = build_reduced_graph(g, recs, 3)
    assert rg.graph.sigma == 1
    assert rg.graph.label == (0, 0)


def test_order_preservation_exhaustively(exhaustive_graphs):
    # class-node minima order in the parent equals reduced minima order
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        if sum(1 for t in tau if t == 3) < 2:
            continue
        gt = trim_for_kinds(g)
        visited = [-1] * g.n
        recs = [
            explore(gt, tau, u, 3, visited)
            for u in range(g.n)
            if tau[u] == 3
        ]
        rg = build_reduced_graph(gt, recs, 3)
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
        visited = [-1] * g.n
        recs = [
            explore(gt, tau, u, 3, visited)
            for u in range(g.n)
            if tau[u] == 3
        ]
        if not recs:
            continue
        rg = build_reduced_graph(gt, recs, 3)
        order = sorted(range(len(recs)), key=lambda k: recs[k].node)
        for i, k in enumerate(order):
            r = recs[k]
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
        visited = [-1] * g.n
        for u in range(g.n):
            if tau[u] == 3:
                r = explore(gt, tau, u, 3, visited)
                assert r.edges_scanned <= 2 * g.n


def test_rejects_overlong_record(fig_graph):
    with pytest.raises(ExplorationError):
        build_reduced_graph(fig_graph, [_rec(5, tuple(range(20)), 2)], 3)
