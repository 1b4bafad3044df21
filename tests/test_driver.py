"""End-to-end partitions: goldens, oracle equivalence, duality, recursion size."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsa import (
    EngineStats,
    MinMaxKey,
    make_graph,
    max_partition,
    min_partition,
    minmax_partition,
    transpose_alphabet,
)
from gsa.driver import _joint_ranks, _union_graph, reduction_step
from gsa.generators import gen
from gsa.oracle import oracle_minmax, oracle_partition, oracle_prefixes

from conftest import (
    FIG_MAX_GROUPS,
    FIG_MIN_GROUPS,
    FIG_MINMAX,
    generated_graphs,
    random_corpus,
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


def test_duality_max_is_reversed_transposed_min(mixed_corpus):
    """Criterion 6. max_partition is defined this way, so the identity holds
    by construction; the correctness of max rests on the oracle tests."""
    for g in mixed_corpus:
        fwd = max_partition(g).groups
        rev = tuple(reversed(min_partition(transpose_alphabet(g)).groups))
        assert fwd == rev


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


def _assert_kept_edges_spell_strings(g):
    n = g.n
    label, link = _union_graph(g, min_partition(g).groups, max_partition(g).groups)
    L = 2 * n + 1
    want = oracle_prefixes(g, "min", L) + oracle_prefixes(g, "max", L)
    for x in range(2 * n):
        walk, y = [], x
        for _ in range(L):
            walk.append(label[y])
            y = link[y]
        assert tuple(walk) == want[x], (g.label, g.preds, x)
        assert (link[x] < n) == (x < n)


def test_union_graph_kept_edges_spell_strings_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        _assert_kept_edges_spell_strings(g)


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_union_graph_kept_edges_spell_strings(g):
    _assert_kept_edges_spell_strings(g)


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


@pytest.mark.parametrize(
    "kind, n, sigma",
    [("cycle", 1000, 3), ("chain-feeding-sink", 1000, 2), ("debruijn", 2**10, 2),
     ("random", 2000, 3)],
)
def test_minmax_order_by_walks_at_large_n(kind, n, sigma):
    """The joint order against 2n-character walks, without the oracle.

    A key's string follows the predecessor of least min rank (min key) or of
    greatest max rank (max key). Strings that agree on 2n characters are
    equal, so each group must agree on 2n characters and adjacent groups must
    differ within 2n characters, the later group reading the larger one.
    """
    g = gen(kind, n, sigma, seed=3, density=0.1)
    rank = {"min": min_partition(g).rank, "max": max_partition(g).rank}
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
