"""The brute-force ground truth is itself cross-checked here."""

from __future__ import annotations

from itertools import product

import pytest

from gsa import InvalidGraphError, make_graph, transpose_alphabet
from gsa.oracle import (
    OracleStabilizationError,
    oracle_minmax,
    oracle_partition,
    oracle_prefixes,
)
from gsa import validate

from conftest import FIG_MAX_GROUPS, FIG_MIN_GROUPS
from corpus import ascending_labelings, full_labelings, graphs


def test_fig_min_prefixes(fig_graph):
    rows = oracle_prefixes(fig_graph, "min", 5)
    assert rows[0] == (0, 0, 0, 0, 0)
    assert rows[1] == (1, 0, 0, 0, 0)
    assert rows[2] == (2, 0, 0, 0, 0)
    assert rows[3] == (3, 0, 0, 0, 0)
    assert rows[4] == (3, 1, 0, 0, 0)
    assert rows[5] == (1, 2, 0, 0, 0)
    assert rows[6] == (3, 3, 0, 0, 0)


def test_fig_max_prefixes(fig_graph):
    rows = oracle_prefixes(fig_graph, "max", 5)
    assert rows[4] == (3, 3, 3, 3, 3)
    assert rows[5] == (1, 3, 0, 0, 0)
    assert rows[6] == (3, 3, 3, 3, 3)


def test_fig_partitions(fig_graph):
    assert oracle_partition(fig_graph, "min").groups == FIG_MIN_GROUPS
    assert oracle_partition(fig_graph, "max").groups == FIG_MAX_GROUPS


def test_prefixes_rejects_bad_length(fig_graph):
    with pytest.raises(ValueError):
        oracle_prefixes(fig_graph, "min", 0)


def test_prefixes_rejects_non_int_length(fig_graph):
    with pytest.raises(ValueError, match="L must be an int"):
        oracle_prefixes(fig_graph, "min", 2.5)


def test_partition_rejects_bad_kind(fig_graph):
    with pytest.raises(ValueError):
        oracle_partition(fig_graph, "best")


def test_prefixes_rejects_bad_kind(fig_graph):
    with pytest.raises(ValueError, match="kind must be min or max"):
        oracle_prefixes(fig_graph, "mid", 5)


def test_prefixes_rejects_invalid_graph():
    # node 1 has no predecessor
    with pytest.raises(InvalidGraphError):
        oracle_prefixes(make_graph([0, 0], [[0], []]), "min", 3)


def test_prefix_rows_extend_consistently(exhaustive_graphs):
    # the length-L table is a prefix of the length-(L+1) table
    for g in exhaustive_graphs:
        for kind in ("min", "max"):
            short = oracle_prefixes(g, kind, g.n + 1)
            long = oracle_prefixes(g, kind, g.n + 2)
            assert [r[: g.n + 1] for r in long] == short


def test_partition_refines_monotonically(exhaustive_graphs):
    # sorting by longer prefixes only ever splits groups, never reorders them
    for g in exhaustive_graphs:
        prev = None
        for L in range(1, g.n + 3):
            rows = oracle_prefixes(g, "min", L)
            order = sorted(range(g.n), key=lambda u: rows[u])
            cur = [rows[u] for u in order]
            if prev is not None:
                assert [r[: L - 1] for r in cur] == sorted(prev)
            prev = cur


def test_fixpoint_matches_long_prefix_sort(exhaustive_graphs):
    # the rank fixpoint equals sorting by prefixes of stabilized length
    for g in exhaustive_graphs:
        L = g.n * g.n + g.n + 2
        for kind in ("min", "max"):
            rows = oracle_prefixes(g, kind, L)
            order = sorted(range(g.n), key=lambda u: rows[u])
            groups: list[list[int]] = []
            for u in order:
                if groups and rows[groups[-1][0]] == rows[u]:
                    groups[-1].append(u)
                else:
                    groups.append([u])
            expect = tuple(tuple(sorted(grp)) for grp in groups)
            assert oracle_partition(g, kind).groups == expect, (g.label, g.preds)


def test_minmax_restrictions(exhaustive_graphs):
    for g in exhaustive_graphs:
        mm = oracle_minmax(g)
        assert mm.restricted("min") == oracle_partition(g, "min")
        assert mm.restricted("max") == oracle_partition(g, "max")
        assert sum(len(grp) for grp in mm.groups) == 2 * g.n


def test_transpose_duality(exhaustive_graphs):
    for g in exhaustive_graphs:
        fwd = oracle_partition(g, "max").groups
        rev = tuple(reversed(oracle_partition(transpose_alphabet(g), "min").groups))
        assert fwd == rev


def _full_count(n: int, sigma: int) -> int:
    return sum(1 for _ in graphs(n, full_labelings(n, sigma)))


def test_enumeration_base_cases():
    assert [g.preds for g in graphs(1, full_labelings(1, 1))] == [((0,),)]
    # n=1 with a larger alphabet budget adds nothing: labels must be surjective
    assert _full_count(1, 3) == 1


def test_enumeration_yields_valid_unique_graphs(exhaustive_graphs):
    seen = set()
    for g in exhaustive_graphs:
        assert validate(g).ok
        key = (g.label, g.preds, g.sigma)
        assert key not in seen
        seen.add(key)


def count_graphs_by_edge_subsets(n: int, sigma_max: int) -> int:
    """Independent recount of the tests' full corpus, for self-consistency.

    Enumerates raw edge subsets of the complete digraph and filters by the
    graph invariants directly. Exponential in n^2; keep n <= 3.
    """
    all_edges = [(u, v) for u in range(n) for v in range(n)]
    count = 0
    for s in range(1, min(n, sigma_max) + 1):
        for labels in product(range(s), repeat=n):
            if len(set(labels)) != s:
                continue
            for mask in range(1 << len(all_edges)):
                indeg = [0] * n
                out_chars: list[set[int]] = [set() for _ in range(n)]
                ok = True
                for i, (u, v) in enumerate(all_edges):
                    if not mask >> i & 1:
                        continue
                    indeg[v] += 1
                    if labels[v] in out_chars[u]:
                        ok = False
                        break
                    out_chars[u].add(labels[v])
                if ok and all(d > 0 for d in indeg):
                    count += 1
    return count


def test_enumeration_count_agrees_with_edge_subsets():
    for n in (1, 2, 3):
        assert _full_count(n, 2) == count_graphs_by_edge_subsets(n, 2)


def test_enumeration_count_sigma3():
    assert _full_count(3, 3) == count_graphs_by_edge_subsets(3, 3)


@pytest.mark.parametrize("n, sigma", [(3, 3), (4, 2)])
def test_ascending_corpus_holds_every_labeled_shape(n, sigma):
    # renumbering any graph's nodes by (label, id) makes its labels ascend
    # with the id, and gives a graph of the ascending corpus; the ascending
    # corpus is a part of the full one, so both hold the same shapes
    ascending = {(g.label, g.preds) for g in graphs(n, ascending_labelings(n, sigma))}
    full = list(graphs(n, full_labelings(n, sigma)))
    assert ascending <= {(g.label, g.preds) for g in full}
    for g in full:
        order = sorted(range(n), key=lambda u: (g.label[u], u))
        new_id = {u: i for i, u in enumerate(order)}
        h = make_graph(
            [g.label[u] for u in order],
            [[new_id[p] for p in g.preds[u]] for u in order],
            sigma=g.sigma,
        )
        assert (h.label, h.preds) in ascending, (g.label, g.preds)


def test_stabilization_guard_is_generous():
    # a graph engineered for a slow fixpoint still stabilizes within guard
    n = 12
    labels = [1] + [0] * (n - 1)
    preds = [[0]] + [[i - 1] for i in range(1, n)]
    g = make_graph(labels, preds, sigma=2)
    assert oracle_partition(g, "min").groups == tuple(
        (u,) for u in range(n - 1, -1, -1)
    )
