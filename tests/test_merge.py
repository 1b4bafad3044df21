"""Tau=2 seeds, psi heights, and both merge directions."""

from __future__ import annotations

import pytest

from gsa import make_graph, min_partition
from gsa.classify import compute_tau
from gsa.generators import gen
from gsa.merge import (
    MergeError,
    Partition,
    _run_heights,
    merge_partitions,
    partition_from_groups,
)
from gsa.oracle import oracle_partition

from conftest import FIG_MIN_GROUPS


def _tau2_groups(g):
    # only tau=2 nodes have the string label^omega, so each of these groups
    # is exactly the tau=2 nodes of one label, in label order
    tau = compute_tau(g)
    groups = [[u for u in grp if tau[u] == 2] for grp in min_partition(g).groups]
    return tuple(tuple(grp) for grp in groups if grp)


def test_seed_fig(fig_graph):
    assert _tau2_groups(fig_graph) == ((0,),)


def test_seed_counting_order():
    # three tau=2 nodes labels 2,0,2 group as [{label0}, {label2 pair}]
    g = make_graph([2, 0, 2, 1], [[0], [1], [2], [0]], sigma=3)
    tau = compute_tau(g)
    assert tau[:3] == [2, 2, 2]
    assert _tau2_groups(g) == ((1,), (0, 2))


def test_seed_empty():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    assert _tau2_groups(g) == ()


def test_merge_forward_fig(fig_graph):
    tau = compute_tau(fig_graph)
    out = partition_from_groups(merge_partitions(fig_graph, tau, [[5]], 3))
    assert out.groups == FIG_MIN_GROUPS


def test_merge_forward_all_tau2():
    g = make_graph([1, 0], [[0], [1]], sigma=2)
    tau = compute_tau(g)
    assert tau == [2, 2]
    out = partition_from_groups(merge_partitions(g, tau, [], 3))
    assert out.groups == ((1,), (0,))


def test_merge_forward_equal_minima_join():
    # two tau=1 nodes reached from one group with one label share a group
    g = make_graph([0, 0, 1, 1], [[0], [1], [0], [1]], sigma=2)
    tau = compute_tau(g)
    assert tau == [2, 2, 1, 1]
    out = partition_from_groups(merge_partitions(g, tau, [], 3))
    assert out.groups == ((0, 1), (2, 3))
    assert out == oracle_partition(g, "min")


def test_psi_fig(fig_graph):
    tau = compute_tau(fig_graph)
    psi = _run_heights(fig_graph, [t == 3 for t in tau])
    assert psi[5] == 1
    assert all(psi[u] == 0 for u in range(7) if u != 5)


def test_psi_chain():
    g = gen("chain-feeding-sink", 5, 2)
    tau = compute_tau(g)
    assert _run_heights(g, [t == 3 for t in tau]) == [0, 1, 2, 3, 4]


def test_psi_isolated_tau3():
    # tau=3 node whose predecessors all have larger labels
    g = make_graph([1, 0, 2], [[2], [1], [2]], sigma=3)
    tau = compute_tau(g)
    assert tau[0] == 3
    assert _run_heights(g, [t == 3 for t in tau])[0] == 1


def test_psi_equals_oracle_leading_run(exhaustive_graphs):
    from gsa.oracle import oracle_prefixes

    for g in exhaustive_graphs:
        tau = compute_tau(g)
        psi = _run_heights(g, [t == 3 for t in tau])
        rows = oracle_prefixes(g, "min", g.n + 2)
        for u in range(g.n):
            if tau[u] != 3:
                continue
            run = 0
            for c in rows[u]:
                if c != g.label[u]:
                    break
                run += 1
            assert psi[u] == run, (g.label, g.preds, u)


def test_merge_backward_fig(fig_graph):
    tau = compute_tau(fig_graph)
    psi = _run_heights(fig_graph, [t == 3 for t in tau])
    b1 = [[1], [2], [3], [4], [6]]
    out = partition_from_groups(merge_partitions(fig_graph, tau, b1, 1, psi))
    assert out.groups == FIG_MIN_GROUPS


def test_merge_backward_no_tau3():
    g = make_graph([0, 1], [[0], [0]], sigma=2)
    tau = compute_tau(g)
    assert tau == [2, 1]
    psi = _run_heights(g, [t == 3 for t in tau])
    out = partition_from_groups(merge_partitions(g, tau, [[1]], 1, psi))
    assert out.groups == ((0,), (1,))


def test_merge_backward_reemission():
    # node 1 is first placed from node 3's group and re-placed (stale entry
    # skipped) when node 2's group also reaches it
    labels = [0, 0, 1, 1]
    preds = [[1], [2, 3], [1], [3]]
    g = make_graph(labels, preds, sigma=2)
    tau = compute_tau(g)
    assert tau == [3, 3, 1, 2]
    psi = _run_heights(g, [t == 3 for t in tau])
    out = partition_from_groups(merge_partitions(g, tau, [[2]], 1, psi))
    assert out == oracle_partition(g, "min")
    assert out.groups == ((0,), (1,), (2,), (3,))


def test_both_directions_agree_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        truth = oracle_partition(g, "min")
        b3 = [[u for u in grp if tau[u] == 3] for grp in truth.groups]
        b1 = [[u for u in grp if tau[u] == 1] for grp in truth.groups]
        psi = _run_heights(g, [t == 3 for t in tau])
        fwd = partition_from_groups(merge_partitions(g, tau, b3, 3))
        bwd = partition_from_groups(merge_partitions(g, tau, b1, 1, psi))
        assert fwd == truth, (g.label, g.preds)
        assert bwd == truth, (g.label, g.preds)


def test_smallest_char_never_tau1_largest_never_tau3(mixed_corpus):
    # the forward merge's first bucket row and the backward merge's first
    # bucket row are structurally empty
    for g in mixed_corpus:
        tau = compute_tau(g)
        labels_used = sorted(set(g.label))
        c1, cs = labels_used[0], labels_used[-1]
        assert not any(tau[u] == 1 and g.label[u] == c1 for u in range(g.n))
        assert not any(tau[u] == 3 and g.label[u] == cs for u in range(g.n))


def test_psi_order_observation(exhaustive_graphs):
    # equal-label tau=3 nodes: strictly larger psi means strictly smaller min
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        psi = _run_heights(g, [t == 3 for t in tau])
        rank = oracle_partition(g, "min").rank
        t3 = [u for u in range(g.n) if tau[u] == 3]
        for u in t3:
            for v in t3:
                if g.label[u] == g.label[v] and psi[u] != psi[v]:
                    assert (rank[u] < rank[v]) == (psi[v] < psi[u])


def test_merge_rejects_impure_class_group(fig_graph):
    tau = compute_tau(fig_graph)
    with pytest.raises(MergeError):
        merge_partitions(fig_graph, tau, [[5, 1]], 3)


def test_partition_rank_consistency():
    p = Partition(((2, 3), (0,), (1,)))
    assert p.rank == {2: 0, 3: 0, 0: 1, 1: 2}
    assert set(p.rank) == {0, 1, 2, 3}
