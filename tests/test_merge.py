"""Tau=2 seeds, psi heights, and both merge directions."""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

import gsa.driver
from gsa import make_graph, max_partition, min_partition, minmax_partition, transpose_alphabet
from gsa.classify import compute_tau
from gsa.generators import gen
from gsa.merge import (
    MergeError,
    Partition,
    _run_heights,
    merge_partitions,
    partition_from_groups,
)
from gsa.oracle import oracle_partition, oracle_prefixes

from conftest import FIG_MIN_GROUPS, generated_graphs, small_corpus, successor_rows


@dataclass
class _Group:
    members: list[int]
    psi: int
    gid: int
    processed: bool = False


def _merge_with_group_objects(g, tau, class_groups, direction, psi=None):
    """The former merge_partitions, kept as the reference for the id-based one.

    Every group is a ``_Group`` object, and every processed group pools its
    candidates in a set and groups them by label in a dict, whatever its size.
    """
    n = g.n
    sigma = g.sigma
    label = g.label
    succs = successor_rows(g)
    fill = 1 if direction == 3 else 3
    ascending = direction == 3

    buckets = [[[] for _ in range(4)] for _ in range(sigma)]
    groups_by_gid = []

    def new_group(members, psi_val):
        grp = _Group(members, psi_val, len(groups_by_gid))
        groups_by_gid.append(grp)
        return grp

    for members in class_groups:
        ms = list(members)
        if not ms:
            continue
        c = label[ms[0]]
        if any(label[x] != c or tau[x] != direction for x in ms):
            raise MergeError("class group is not label- and tau-pure")
        buckets[c][direction].append(new_group(ms, 0))
    by_label = [[] for _ in range(sigma)]
    for u in range(n):
        if tau[u] == 2:
            by_label[label[u]].append(u)
    for c in range(sigma):
        if by_label[c]:
            buckets[c][2].append(new_group(by_label[c], 0))

    placed_gid = [-1] * n
    out = []
    if not ascending and psi is None:
        raise MergeError("psi heights required but not provided")

    char_order = range(sigma) if ascending else range(sigma - 1, -1, -1)
    t_order = (1, 2, 3) if ascending else (3, 2, 1)

    def process(grp, c_i, t):
        grp.processed = True
        if t == fill:
            alive = [v for v in grp.members if placed_gid[v] == grp.gid]
        else:
            alive = grp.members
        if not alive:
            return
        out.append(alive)
        cand = {}
        in_cand = set()
        for u in alive:
            for v in succs[u]:
                if tau[v] != fill or v in in_cand:
                    continue
                c_k = label[v]
                if ascending:
                    if placed_gid[v] >= 0:
                        continue
                else:
                    if c_k > c_i or (c_k == c_i and t != fill):
                        continue
                    if psi[v] != (grp.psi + 1 if c_k == c_i else 1):
                        continue
                in_cand.add(v)
                cand.setdefault(c_k, []).append(v)
        for c_k, members in cand.items():
            psi_val = grp.psi + 1 if c_k == c_i and t == fill else 1
            j = new_group(members, psi_val)
            for v in members:
                old = placed_gid[v]
                if old >= 0 and groups_by_gid[old].processed:
                    raise MergeError(
                        f"node {v} re-placed after its group was finalized"
                    )
                placed_gid[v] = j.gid
            buckets[c_k][fill].append(j)

    for c in char_order:
        for t in t_order:
            lst = buckets[c][t]
            if t == fill:
                i = 0
                while i < len(lst):
                    grp = lst[i]
                    i += 1
                    process(grp, c, t)
            else:
                for grp in (lst if ascending else reversed(lst)):
                    process(grp, c, t)

    if not ascending:
        out.reverse()
    placed = sum(len(grp) for grp in out)
    if placed != n or {u for grp in out for u in grp} != set(range(n)):
        raise MergeError("merge did not place every node exactly once")
    return out


def _merge_outcome(fn, *args):
    try:
        return fn(*args), None
    except MergeError as e:
        return None, str(e)


def _assert_merge_matches_group_objects(g, truth=None):
    """Both directions, fed the true class groups and _run_heights psi.

    The two merges must return equal groups, or raise the same MergeError.
    Returns the size of the largest group of fill nodes (the tau class that
    the merge builds) in either direction; one above 1 was built from a
    processed group with more than one live node.
    """
    tau = compute_tau(g)
    if truth is None:
        truth = oracle_partition(g, "min")
    psi = _run_heights(g, [t == 3 for t in tau])
    largest = 0
    for direction in (3, 1):
        class_groups = [[u for u in grp if tau[u] == direction] for grp in truth.groups]
        args = (g, tau, class_groups, direction, psi if direction == 1 else None)
        out, err = _merge_outcome(merge_partitions, *args)
        ref, ref_err = _merge_outcome(_merge_with_group_objects, *args)
        where = (g.label, g.preds, direction)
        assert (out, err) == (ref, ref_err), where
        if out is not None:
            assert partition_from_groups(out) == truth, where
            fill = 1 if direction == 3 else 3
            sizes = [len(grp) for grp in out if tau[grp[0]] == fill]
            largest = max([largest, *sizes])
    return largest


def _disjoint_copies(g, k):
    """k copies of g side by side; copy i numbers its nodes from i * g.n."""
    labels = list(g.label) * k
    preds = [[p + i * g.n for p in row] for i in range(k) for row in g.preds]
    return make_graph(labels, preds, sigma=g.sigma)


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


def _assert_psi_is_oracle_leading_run(g):
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


def test_psi_equals_oracle_leading_run(exhaustive_graphs):
    for g in exhaustive_graphs:
        _assert_psi_is_oracle_leading_run(g)


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_psi_equals_oracle_leading_run_on_generators(g):
    for h in (g, transpose_alphabet(g)):
        _assert_psi_is_oracle_leading_run(h)


def test_run_heights_rejects_an_equal_label_cycle():
    g = make_graph([0, 0], [[1], [0]])
    with pytest.raises(MergeError, match="equal-label cycle through node 0"):
        _run_heights(g, [True, True])


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
    # each direction returns the oracle's partition and agrees with the
    # object-based reference
    for g in exhaustive_graphs:
        _assert_merge_matches_group_objects(g)


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


@pytest.mark.parametrize(
    "class_groups, direction",
    [
        ([[5, 1]], 3),  # tau 3 and 1, both labeled 1
        ([[1]], 3),  # one node, tau 1
        ([[1, 2]], 1),  # both tau 1, labeled 1 and 2
        ([[2], [1], [3], [4], [6]], 1),  # pure, but label 2 before label 1
    ],
    ids=["tau-mixed", "wrong-tau", "label-mixed", "label-order"],
)
def test_merge_rejects_impure_class_group(fig_graph, class_groups, direction):
    tau = compute_tau(fig_graph)
    with pytest.raises(MergeError, match="class group is not label- and tau-pure"):
        merge_partitions(fig_graph, tau, class_groups, direction)


def test_partition_rank_consistency():
    p = Partition(((2, 3), (0,), (1,)))
    assert p.rank == {2: 0, 3: 0, 0: 1, 1: 2}
    assert set(p.rank) == {0, 1, 2, 3}


@settings(deadline=None, max_examples=80)
@given(g=generated_graphs())
def test_merge_matches_group_objects_on_generators(g):
    _assert_merge_matches_group_objects(g)


@pytest.mark.parametrize(
    "kind, n, sigma, copies",
    [
        ("random", 12, 3, 4),
        ("debruijn", 8, 2, 3),
        ("chain-feeding-sink", 6, 2, 2),
        ("cycle", 12, 3, 1),
        ("cycle", 20, 4, 1),
    ],
)
def test_merge_matches_group_objects_on_multi_node_groups(kind, n, sigma, copies):
    # the benchmark's graphs put every node in a group of its own, so these
    # are the graphs on which the merge pools the successors of many nodes
    g = _disjoint_copies(gen(kind, n, sigma, seed=7, density=0.4), copies)
    assert _assert_merge_matches_group_objects(g) > 1


@pytest.mark.parametrize(
    "kind, n, sigma, copies, density",
    [
        pytest.param("random", 2500, 4, 4, 0.1, id="random-2500-4-4"),
        pytest.param("random", 1000, 200, 2, 0.5, id="random-1000-200-2-dense"),
        pytest.param("cycle", 9999, 3, 1, 0.1, id="cycle-9999-3-1"),
    ],
)
def test_merge_matches_group_objects_at_scale(kind, n, sigma, copies, density):
    # too large for the oracle; the engine's partition stands in for it
    g = _disjoint_copies(gen(kind, n, sigma, seed=3, density=density), copies)
    truth = min_partition(g)
    assert min(map(len, truth.groups)) > 1
    assert _assert_merge_matches_group_objects(g, truth) > 1


def _engine_merges_match_group_objects(graphs, mp):
    """Run the three partition calls on each graph with every merge they
    make, at every level, checked against the reference as it is made.
    Returns the number of merges and the largest alphabet one of them saw."""
    seen = []

    def recorder(*args):
        out = merge_partitions(*args)
        assert out == _merge_with_group_objects(*args), args[:2]
        seen.append(args[0].sigma)
        return out

    mp.setattr(gsa.driver, "merge_partitions", recorder)
    for g in graphs:
        for call in (min_partition, max_partition, minmax_partition):
            call(g)
    return len(seen), max(seen, default=0)


def test_every_engine_merge_matches_group_objects_exhaustively(monkeypatch):
    count, _ = _engine_merges_match_group_objects(small_corpus(3, 3), monkeypatch)
    assert count > 0


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_every_engine_merge_matches_group_objects_on_generators(g):
    with pytest.MonkeyPatch.context() as mp:
        _engine_merges_match_group_objects([g], mp)


def test_every_engine_merge_matches_group_objects_at_depth(monkeypatch):
    # reduced levels: the recursed alphabet grows far past the input's
    g = gen("random", 2000, 4, seed=5, density=0.3)
    count, sigma = _engine_merges_match_group_objects([g], monkeypatch)
    assert count > 6 and sigma > 100


def _merge_counting_rows(g, tau, class_groups, direction):
    """merge_partitions's result, and how many forward rows it walked.

    The rows are a local of the merge, so a line trace of its own frame
    counts them: a group walks the row of each live member right after it
    reads its height.
    """
    code = merge_partitions.__code__
    lines, start = inspect.getsourcelines(merge_partitions)
    at = start + next(i for i, ln in enumerate(lines) if "h = height[gid]" in ln)
    walked = 0

    def local(frame, event, arg):
        nonlocal walked
        if event == "line" and frame.f_lineno == at:
            walked += len(frame.f_locals["alive"])
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code is code else None

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        out = merge_partitions(g, tau, class_groups, direction)
    finally:
        sys.settrace(old)
    return out, walked


def test_marking_merge_stops_reading_once_every_fill_node_is_placed():
    # dense: every tau=1 node has many smaller-labeled predecessors, and the
    # first one processed places it, so all are placed after a few groups
    # and the later groups walk no forward row
    g = gen("random", 1000, 200, seed=3, density=0.5)
    tau = compute_tau(g)
    groups = [[u for u in grp if tau[u] == 3] for grp in min_partition(g).groups]
    class_groups = [grp for grp in groups if grp]
    out, walked = _merge_counting_rows(g, tau, class_groups, 3)
    assert out == _merge_with_group_objects(g, tau, class_groups, 3)
    assert 0 < walked < len(out) // 4


def test_merge_requires_psi_for_direction_1(fig_graph):
    tau = compute_tau(fig_graph)
    with pytest.raises(MergeError, match="psi heights required"):
        merge_partitions(fig_graph, tau, [[1], [2], [3], [4], [6]], 1)


def test_merge_rejects_a_node_left_unplaced():
    # node 0's true run height is 1; at 2 no group ever places it
    g = make_graph([0, 1], [[1], [1]], sigma=2)
    tau = compute_tau(g)
    assert tau == [3, 2]
    psi = _run_heights(g, [t == 3 for t in tau])
    assert psi == [1, 0]
    with pytest.raises(MergeError, match="did not place every node exactly once"):
        merge_partitions(g, tau, [], 1, [2, 0])


def test_merge_rejects_a_node_placed_twice():
    # the class group lists node 0 twice and leaves out node 1 (tau=3, never
    # placed by a direction-3 merge), so the count of placed nodes equals n
    g = make_graph([0, 0, 1], [[2], [0], [2]], sigma=2)
    tau = compute_tau(g)
    assert tau == [3, 3, 2]
    with pytest.raises(MergeError, match="did not place every node exactly once"):
        merge_partitions(g, tau, [[0, 0]], 3)
