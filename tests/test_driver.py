"""End-to-end partitions: goldens, oracle equivalence, duality, recursion size."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsa import (
    EngineStats,
    MinMaxKey,
    format_graph,
    make_graph,
    max_partition,
    min_partition,
    minmax_partition,
    parse_graph,
    transpose_alphabet,
)
from gsa.driver import _union_graph, reduction_step
from gsa.generators import KINDS, gen
from gsa.oracle import oracle_minmax, oracle_partition

from conftest import FIG_MAX_GROUPS, FIG_MIN_GROUPS, FIG_MINMAX, random_corpus


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


def _union_by_make_graph(g):
    n = g.n
    preds = list(g.preds) + [[p + n for p in ps] for ps in g.preds]
    return make_graph(g.label * 2, preds, sigma=g.sigma)


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(KINDS),
    k=st.integers(1, 5),
    sigma=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_union_graph_equals_make_graph_union(kind, k, sigma, seed):
    if kind == "debruijn":
        sigma = max(sigma, 2)
        n = sigma ** min(k, 4)
    elif kind == "chain-feeding-sink":
        sigma, n = 2, 4 * k
    else:
        n = max(sigma, 5 * k)
    g = gen(kind, n, sigma, seed=seed, density=0.4)
    for h in (g, parse_graph(format_graph(g))):
        u2 = _union_graph(h)
        assert u2 == _union_by_make_graph(h)
        assert u2.succs_derived


def test_union_graph_equals_make_graph_union_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        assert _union_graph(g) == _union_by_make_graph(g)
