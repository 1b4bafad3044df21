"""End-to-end partitions: goldens, oracle equivalence, duality, recursion size."""

from __future__ import annotations

import gc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsa import (
    EngineStats,
    InvalidGraphError,
    MinMaxKey,
    MinMaxPartition,
    make_graph,
    max_partition,
    min_partition,
    minmax_partition,
    transpose_alphabet,
)
import gsa.driver
from gsa.driver import _group_index, _union_graph, reduction_step
from gsa.generators import gen
from gsa.graph import _trim_to_greatest_runs, trim_for_kinds
from gsa.oracle import oracle_minmax, oracle_partition, oracle_prefixes

from conftest import (
    FIG_LABELS,
    FIG_MAX_GROUPS,
    FIG_MIN_GROUPS,
    FIG_MINMAX,
    FIG_PREDS,
    generated_graphs,
    random_corpus,
    small_corpus,
)


def _keys(groups):
    return tuple(
        tuple(MinMaxKey(node, kind) for node, kind in grp) for grp in groups
    )


def test_fig_min(fig_graph):
    assert min_partition(fig_graph).groups == FIG_MIN_GROUPS


def test_fig_max(fig_graph):
    assert max_partition(fig_graph).groups == FIG_MAX_GROUPS


def test_fig_minmax(fig_graph):
    assert minmax_partition(fig_graph).groups == _keys(FIG_MINMAX)


def test_single_node():
    g = make_graph([0], [[0]])
    assert min_partition(g).groups == ((0,),)
    assert max_partition(g).groups == ((0,),)
    assert minmax_partition(g).groups == (
        (MinMaxKey(0, "min"), MinMaxKey(0, "max")),
    )


def test_empty_graph():
    g = make_graph([], [])
    stats = EngineStats()
    assert min_partition(g, stats).groups == ()
    assert max_partition(g, stats).groups == ()
    assert minmax_partition(g, stats).groups == ()
    assert stats.levels == []
    assert min_partition(g) == oracle_partition(g, "min")
    assert max_partition(g) == oracle_partition(g, "max")
    assert minmax_partition(g) == oracle_minmax(g)


def test_equal_label_cycle_one_group():
    g = make_graph([0, 0, 0], [[2], [0], [1]], sigma=1)
    assert min_partition(g).groups == ((0, 1, 2),)
    assert max_partition(g).groups == ((0, 1, 2),)


def test_two_cycle():
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    assert min_partition(g).groups == ((0,), (1,))
    assert max_partition(g).groups == ((0,), (1,))


def test_min_matches_oracle_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        assert min_partition(g) == oracle_partition(g, "min"), (g.label, g.preds)


def test_max_matches_oracle_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        assert max_partition(g) == oracle_partition(g, "max"), (g.label, g.preds)


def test_minmax_matches_oracle_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        assert minmax_partition(g) == oracle_minmax(g), (g.label, g.preds)


def test_min_matches_oracle_random():
    for g in random_corpus():
        assert min_partition(g) == oracle_partition(g, "min")


def test_max_matches_oracle_random():
    for g in random_corpus():
        assert max_partition(g) == oracle_partition(g, "max")


def test_minmax_matches_oracle_random():
    for g in random_corpus(sizes=(6, 10), per_size=6):
        assert minmax_partition(g) == oracle_minmax(g)


def test_minmax_restrictions_match_single_kind(mixed_corpus):
    for g in mixed_corpus:
        mm = minmax_partition(g)
        assert mm.restricted("min") == min_partition(g)
        assert mm.restricted("max") == max_partition(g)


def test_restricted_rejects_an_unknown_kind(fig_graph):
    with pytest.raises(ValueError, match="kind must be min or max, got 'mni'"):
        minmax_partition(fig_graph).restricted("mni")


def test_duality_max_is_reversed_transposed_min(mixed_corpus):
    """Criterion 6, level by level. max_partition runs the engine on the
    transposed greatest-label runs of g, not on transpose_alphabet(g), so
    the identity holds only if those runs are exactly what the engine's
    trim keeps: then the groups and every recorded level agree. The
    correctness of max itself rests on the oracle tests."""
    for g in mixed_corpus:
        s_max, s_rev, s_min, s_mm = (EngineStats() for _ in range(4))
        fwd = max_partition(g, s_max).groups
        rev = tuple(reversed(min_partition(transpose_alphabet(g), s_rev).groups))
        assert fwd == rev
        assert s_max.levels == s_rev.levels
        assert s_max.peak_exploration_edges == s_rev.peak_exploration_edges
        # minmax records the min run's levels, then the max run's
        min_partition(g, s_min)
        minmax_partition(g, s_mm)
        assert s_mm.levels == s_min.levels + s_max.levels
        assert s_mm.peak_exploration_edges == max(
            s_min.peak_exploration_edges, s_max.peak_exploration_edges
        )


def test_recursed_class_at_most_half(mixed_corpus):
    for g in mixed_corpus:
        for part in (min_partition, max_partition):
            stats = EngineStats()
            part(g, stats=stats)
            for lv in stats.levels:
                if lv.n1 > 0 and lv.n3 > 0:
                    assert lv.reduced_n <= lv.n // 2


def test_depth_logarithmic():
    g = gen("random", 512, 8, seed=7, density=0.3)
    stats = EngineStats()
    min_partition(g, stats=stats)
    assert stats.depth <= 2 * 10  # 2 * log2(512) + slack


def test_level_stats_count_edges_before_and_after_the_trim(fig_graph):
    # levels are recorded deepest first, so the top level comes last; the
    # fig graph's top level drops the edges (4,4) and (3,5)
    stats = EngineStats()
    min_partition(fig_graph, stats=stats)
    top = stats.levels[-1]
    assert (top.n, top.m, top.kept) == (7, 10, 8)
    g = gen("random", 400, 6, seed=3, density=0.5)
    for part, h in ((min_partition, g), (max_partition, transpose_alphabet(g))):
        stats = EngineStats()
        part(g, stats=stats)
        top = stats.levels[-1]
        assert top.m == h.edge_count()
        assert top.kept == trim_for_kinds(h).edge_count() < top.m
        assert all(0 < lv.kept <= lv.m for lv in stats.levels)
    # a minmax call records the levels of a min call, then of a max call
    stats, mins, maxs = EngineStats(), EngineStats(), EngineStats()
    minmax_partition(g, stats=stats)
    min_partition(g, stats=mins)
    max_partition(g, stats=maxs)
    assert stats.levels == mins.levels + maxs.levels


def test_reduction_step_fig(fig_graph):
    tau, direction, rg = reduction_step(fig_graph)
    assert direction == 3
    assert rg is not None
    assert rg.node_map == (5,)
    assert rg.letter_key == (((1, 2, 0), 2),)


def test_reduction_step_no_class():
    g = make_graph([0], [[0]])
    tau, direction, rg = reduction_step(g)
    assert tau == [2] and rg is None


def test_rejects_invalid_graph():
    g = make_graph([0, 0], [[0, 1], []])
    with pytest.raises(Exception):
        min_partition(g)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 14),
    sigma=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_min_oracle_property(n, sigma, seed):
    g = gen("random", n, min(sigma, n), seed=seed, density=0.4)
    assert min_partition(g) == oracle_partition(g, "min")


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 12),
    sigma=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_minmax_oracle_property(n, sigma, seed):
    g = gen("random", n, min(sigma, n), seed=seed, density=0.4)
    assert minmax_partition(g) == oracle_minmax(g)


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["cycle", "debruijn"]),
    k=st.integers(1, 5),
    sigma=st.integers(2, 3),
)
def test_structured_generators_oracle(kind, k, sigma):
    n = sigma**k if kind == "debruijn" else 3 * k
    g = gen(kind, n, sigma)
    assert min_partition(g) == oracle_partition(g, "min")
    assert max_partition(g) == oracle_partition(g, "max")


def _ranks(g):
    rank_min = _group_index(min_partition(g).groups, g.n)
    rank_max = _group_index(max_partition(g).groups, g.n)
    return rank_min, rank_max


def _kept_edges(g, rank_min, rank_max):
    return _union_graph(trim_for_kinds(g), _trim_to_greatest_runs(g), rank_min, rank_max)


def _assert_kept_edges_spell_strings(g):
    n = g.n
    f, h = _kept_edges(g, *_ranks(g))
    L = 2 * n + 1
    for sense, link in (("min", f), ("max", h)):
        want = oracle_prefixes(g, sense, L)
        for x in range(n):
            walk, y = [], x
            for _ in range(L):
                walk.append(g.label[y])
                y = link[y]
            assert tuple(walk) == want[x], (g.label, g.preds, sense, x)
            assert link[x] in g.preds[x]


def test_union_graph_kept_edges_spell_strings_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        _assert_kept_edges_spell_strings(g)


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_union_graph_kept_edges_spell_strings(g):
    _assert_kept_edges_spell_strings(g)


def _assert_kept_edges_are_row_extremes(g):
    """A source of smaller label has a smaller min rank and a source of
    greater label a greater max rank, so the extremes over the whole row are
    the kept edges, ties to the first in row order."""
    rank_min, rank_max = _ranks(g)
    f, h = _kept_edges(g, rank_min, rank_max)
    assert f == [min(ps, key=rank_min.__getitem__) for ps in g.preds], (g.label, g.preds)
    assert h == [max(ps, key=rank_max.__getitem__) for ps in g.preds], (g.label, g.preds)


def test_union_graph_kept_edges_are_row_extremes_exhaustively():
    for g in small_corpus(3, 3):
        _assert_kept_edges_are_row_extremes(g)


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_union_graph_kept_edges_are_row_extremes(g):
    _assert_kept_edges_are_row_extremes(g)


def test_union_graph_kept_edges_are_row_extremes_on_many_labels():
    g = gen("random", 200, 50, seed=0, density=0.5)
    # every row holds more than one label, so both cuts shorten every row
    assert all(g.label[ps[0]] != g.label[ps[-1]] for ps in g.preds)
    _assert_kept_edges_are_row_extremes(g)


def _joint_ranks(label: tuple[int, ...], link: list[int]) -> list[int]:
    """Rank every key by the string its kept edges spell (prefix doubling).

    The reference for the joint order. After round k, ``rank`` orders the
    first 2^k characters and ``jump`` maps a key to the key 2^k kept edges
    further along its string. The first round that splits no class leaves
    every later round unchanged, so it ends the loop. Each kept-edge chain
    lies within n keys, so two strings that agree on 2n characters are
    equal (Fine and Wilf); at most ceil(log2 2n) + 1 rounds run. ``label``
    must use every value in 0..max(label), as a valid graph's labels do, so
    every rank lies below the number of classes. Returns dense ranks.
    """
    rank, jump = list(label), link
    classes = len(set(rank))
    while True:
        keys = [r * classes + rank[j] for r, j in zip(rank, jump)]
        dense = {k: i for i, k in enumerate(sorted(set(keys)))}
        rank = list(map(dense.__getitem__, keys))
        if len(dense) == classes:
            return rank
        classes = len(dense)
        jump = list(map(jump.__getitem__, jump))


def _reference_minmax(g):
    """The joint partition by prefix doubling over the 2n kept edges: key x
    < n is (x, min), key x + n is (x, max)."""
    n = g.n
    f, h = _kept_edges(g, *_ranks(g))
    rank = _joint_ranks(g.label * 2, f + [v + n for v in h])
    groups = [[] for _ in range(max(rank, default=-1) + 1)]
    for u in range(n):
        groups[rank[u]].append(MinMaxKey(u, "min"))
        groups[rank[u + n]].append(MinMaxKey(u, "max"))
    return MinMaxPartition(tuple(map(tuple, groups)))


def _assert_joint_matches_reference(g):
    assert minmax_partition(g) == _reference_minmax(g), (g.label, g.preds)


def test_joint_order_matches_doubling_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        _assert_joint_matches_reference(g)


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_joint_order_matches_doubling(g):
    _assert_joint_matches_reference(g)


def _chains(lengths):
    """A 0-labelled self-loop feeding one chain per entry k of ``lengths``:
    chain t has k nodes labelled t and ends in a self-loop labelled t. The
    self-loop's max string t t t ... lies above all k + 1 min strings of
    label t, so its one-group cycle of kept max edges climbs past them one
    per loop."""
    label, preds = [0], [[0]]
    for t, k in enumerate(lengths, 1):
        prev = 0
        for _ in range(k):
            label.append(t)
            preds.append([prev])
            prev = len(label) - 1
        label.append(t)
        preds.append([prev, len(label) - 1])
    return make_graph(label, preds, sigma=len(lengths) + 1)


@pytest.mark.parametrize(
    "lengths",
    [[0], [1], [2], [7], [300], [3, 3, 3], [5, 1, 9, 2], [40, 120, 80, 60]],
)
def test_joint_order_matches_doubling_on_chains_into_loops(lengths):
    _assert_joint_matches_reference(_chains(lengths))


@pytest.mark.parametrize(
    "kind, n, sigma",
    [("cycle", 1, 1), ("cycle", 9, 1), ("cycle", 2, 2), ("cycle", 500, 2),
     ("cycle", 999, 3), ("cycle", 997, 5), ("chain-feeding-sink", 2, 2),
     ("chain-feeding-sink", 3, 2), ("chain-feeding-sink", 50, 2)],
)
def test_joint_order_matches_doubling_on_cycles(kind, n, sigma):
    """All n max keys of the round-robin cycle lie on one cycle of kept
    edges; chain-feeding-sink has min = max on every node. The n = 1000
    cases are in ``test_joint_order_matches_doubling_at_large_n``."""
    _assert_joint_matches_reference(gen(kind, n, sigma))


@st.composite
def _pointer_graphs(draw):
    """Labels and one out-pointer per key: one or two cycles of periodic
    labels with a few flipped, and trees hanging off them, so strings share
    long prefixes."""
    m = draw(st.integers(1, 48))
    period = draw(st.integers(1, 4))
    pattern = draw(st.lists(st.integers(0, 2), min_size=period, max_size=period))
    label = [pattern[x % period] for x in range(m)]
    for x in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        label[x] = (label[x] + 1) % 3
    used = sorted(set(label))  # labels of a valid graph use every character
    label = [used.index(c) for c in label]
    a = draw(st.integers(1, m))
    b = draw(st.integers(a, m))
    link = [(x + 1) % a for x in range(a)]
    link += [a + (x - a + 1) % (b - a) for x in range(a, b)]
    link += [draw(st.integers(0, x - 1)) for x in range(b, m)]
    return label, link


@settings(deadline=None, max_examples=200)
@given(pg=_pointer_graphs())
def test_joint_ranks_order_first_2m_characters(pg):
    label, link = pg
    m = len(label)
    spelled = []
    for x in range(m):
        walk = []
        for _ in range(2 * m):
            walk.append(label[x])
            x = link[x]
        spelled.append(tuple(walk))
    dense = {w: i for i, w in enumerate(sorted(set(spelled)))}
    assert _joint_ranks(tuple(label), link) == [dense[w] for w in spelled]


LARGE_N = [("cycle", 1000, 3), ("chain-feeding-sink", 1000, 2),
           ("debruijn", 2**10, 2), ("random", 2000, 3)]


@pytest.mark.parametrize("kind, n, sigma", LARGE_N)
def test_joint_order_matches_doubling_at_large_n(kind, n, sigma):
    _assert_joint_matches_reference(gen(kind, n, sigma, seed=3, density=0.1))


@pytest.mark.parametrize("kind, n, sigma", LARGE_N)
def test_minmax_order_by_walks_at_large_n(kind, n, sigma):
    """The joint order against 2n-character walks, without the oracle.

    A key's string follows the predecessor of least min rank (min key) or of
    greatest max rank (max key). Strings that agree on 2n characters are
    equal, so each group must agree on 2n characters and adjacent groups must
    differ within 2n characters, the later group reading the larger one.
    """
    g = gen(kind, n, sigma, seed=3, density=0.1)
    rank = dict(zip(("min", "max"), _ranks(g)))
    pick = {"min": min, "max": max}
    step = {
        (u, sense): (pick[sense](ps, key=rank[sense].__getitem__), sense)
        for u, ps in enumerate(g.preds) for sense in ("min", "max")
    }

    def compare(x, y):
        for _ in range(2 * n):
            if g.label[x[0]] != g.label[y[0]]:
                return g.label[x[0]] - g.label[y[0]]
            x, y = step[x], step[y]
        return 0

    mm = minmax_partition(g)
    keys = [[(k.node, k.kind) for k in grp] for grp in mm.groups]
    assert sum(map(len, keys)) == 2 * n
    for grp in keys:
        assert all(compare(grp[0], y) == 0 for y in grp[1:])
    for a, b in zip(keys, keys[1:]):
        assert compare(a[0], b[0]) < 0


# Oracle equivalence where the recursion is deep: (graph, depth per call kind).
# The oracle needs about as many rounds as the longest shared prefix of two
# distinct strings, which is short on these graphs; oracle_minmax at
# density 0.3 takes seconds, so minmax is checked at density 0.12 and on
# de Bruijn.
DEEP = {
    "random-20000-4-d.3-s1": (("random", 20000, 4, 1, 0.3), {"min": 9, "max": 8}),
    "random-20000-4-d.12-s1": (
        ("random", 20000, 4, 1, 0.12), {"min": 8, "max": 8, "minmax": 16}
    ),
    "random-20000-4-d.3-s2": (("random", 20000, 4, 2, 0.3), {"min": 9}),
    "debruijn-8192": (("debruijn", 2**13, 2, 0, 0.1), {"min": 5, "max": 5, "minmax": 10}),
}


@cache
def _deep_graph(name):
    return gen(*DEEP[name][0])


@pytest.mark.parametrize(
    "name, kind",
    [(name, kind) for name, (_args, depths) in DEEP.items() for kind in depths],
)
def test_matches_oracle_at_depth(name, kind):
    """EngineStats.depth is asserted so that the check keeps its depth if the
    generator changes. A minmax call records the min run and then the max
    run, so its depth is the sum of both."""
    g = _deep_graph(name)
    stats = EngineStats()
    if kind == "minmax":
        assert minmax_partition(g, stats=stats) == oracle_minmax(g)
    else:
        part = min_partition if kind == "min" else max_partition
        assert part(g, stats=stats) == oracle_partition(g, kind)
    assert stats.depth == DEEP[name][1][kind]


# The three entry points pause the cyclic collector; these graphs back the
# premise that a call leaves no cyclic garbage for it to find.
GC_GRAPHS = {
    "fig": lambda: make_graph(FIG_LABELS, FIG_PREDS, sigma=4),
    "random-400-4": lambda: gen("random", 400, 4, seed=1, density=0.3),
    "random-2000-4": lambda: gen("random", 2000, 4, seed=2, density=0.3),
    "random-2000-120": lambda: gen("random", 2000, 120, seed=3, density=0.1),
    "cycle-600-3": lambda: gen("cycle", 600, 3),
    "debruijn-1024-2": lambda: gen("debruijn", 2**10, 2),
    "debruijn-729-3": lambda: gen("debruijn", 3**6, 3),
    "chain-feeding-sink-500": lambda: gen("chain-feeding-sink", 500, 2),
}
PARTITIONS = {"min": min_partition, "max": max_partition, "minmax": minmax_partition}


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    """Put the collector back as it was, whatever the test does to it."""
    was = gc.isenabled()
    yield
    _set_collector(was)


@pytest.mark.parametrize("name", GC_GRAPHS)
def test_calls_leave_no_cyclic_garbage(name, collector_state):
    g = GC_GRAPHS[name]()
    for kind, part in PARTITIONS.items():
        gc.collect()
        gc.disable()
        part(g)  # the result is dropped at once
        assert gc.collect() == 0, kind


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("kind", PARTITIONS)
def test_collector_paused_during_a_call_and_restored(
    kind, enabled, fig_graph, collector_state, monkeypatch
):
    seen = []
    engine = gsa.driver._engine

    def recording(*args):
        seen.append(gc.isenabled())
        return engine(*args)

    monkeypatch.setattr(gsa.driver, "_engine", recording)
    _set_collector(enabled)
    PARTITIONS[kind](fig_graph)
    assert seen and not any(seen)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("kind", PARTITIONS)
def test_collector_restored_after_invalid_graph(kind, enabled, collector_state):
    g = make_graph([0, 0], [[0, 1], []])
    _set_collector(enabled)
    with pytest.raises(InvalidGraphError):
        PARTITIONS[kind](g)
    assert gc.isenabled() == enabled
