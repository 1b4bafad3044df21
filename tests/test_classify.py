"""Classification of nodes by the shape of their minimum string."""

from __future__ import annotations

from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsa import LabeledGraph, make_graph, transpose_alphabet
from gsa.classify import compute_tau, equal_label_heights
from gsa.driver import _group_index
from gsa.generators import gen
from gsa.merge import _run_heights
from gsa.oracle import oracle_partition, oracle_prefixes

from conftest import (
    FIG_TAU,
    generated_graphs,
    random_corpus,
    small_corpus,
    successor_rows,
)


def tau_invariant_violations(g: LabeledGraph, tau: Sequence[int]) -> list[str]:
    """Edge-local sanity conditions any correct tau vector satisfies."""
    bad = []
    for u, ss in enumerate(successor_rows(g)):
        for v in ss:
            if g.label[u] < g.label[v] and tau[v] != 1:
                bad.append(f"edge ({u},{v}): smaller-label pred but tau[v]={tau[v]}")
            if g.label[u] == g.label[v] and tau[u] == 1 and tau[v] != 1:
                bad.append(f"edge ({u},{v}): equal-label tau=1 pred but tau[v]={tau[v]}")
    return bad


def _equal_label_heights_scanning(g: LabeledGraph, active: Sequence[bool]) -> list[int]:
    """Reference peel that reads the whole successor row of every active node."""
    n, label, succs = g.n, g.label, successor_rows(g)
    indeg = [0] * n
    for u in range(n):
        if active[u]:
            for v in succs[u]:
                if label[v] == label[u] and active[v]:
                    indeg[v] += 1
    h = [0] * n
    queue = [v for v in range(n) if active[v] and not indeg[v]]
    for u in queue:
        h[u] += 1
        for v in succs[u]:
            if label[v] == label[u] and active[v]:
                h[v] = max(h[v], h[u])
                indeg[v] -= 1
                if not indeg[v]:
                    queue.append(v)
    return [0 if d else x for x, d in zip(h, indeg)]


def _compute_tau_scanning(g: LabeledGraph) -> list[int]:
    """Reference tau that spreads tau=1 along whole successor rows."""
    n, label, preds, succs = g.n, g.label, g.preds, successor_rows(g)
    one = [False] * n
    queue = [v for v in range(n) if preds[v] and label[preds[v][0]] < label[v]]
    for v in queue:
        one[v] = True
    for u in queue:
        for v in succs[u]:
            if label[v] == label[u] and not one[v]:
                one[v] = True
                queue.append(v)
    h = _equal_label_heights_scanning(g, [not x for x in one])
    return [1 if one[u] else 3 if h[u] else 2 for u in range(n)]


def test_fig_graph_tau(fig_graph):
    assert compute_tau(fig_graph) == FIG_TAU


def test_two_cycle():
    # min_0 = (01)^ω > 0^ω, min_1 = (10)^ω < 1^ω
    g = make_graph([0, 1], [[1], [0]], sigma=2)
    assert compute_tau(g) == [3, 1]


def test_single_self_loop():
    assert compute_tau(make_graph([0], [[0]])) == [2]


def test_equal_label_cycle_all_two():
    g = make_graph([0, 0, 0], [[2], [0], [1]], sigma=1)
    assert compute_tau(g) == [2, 2, 2]


def test_chain_into_larger_is_three():
    # head self-loop label 1, chain labeled 0: minima 0^k 1^ω
    g = gen("chain-feeding-sink", 5, 2)
    assert compute_tau(g) == [2, 3, 3, 3, 3]


def test_equal_label_heights_skip_inactive_predecessors():
    # an equal-label 3-cycle with node 0 left out is the chain 1 -> 2
    g = make_graph([0, 0, 0], [[2], [0], [1]], sigma=1)
    assert equal_label_heights(g, [False, True, True]) == [0, 1, 2]
    assert equal_label_heights(g, [True, True, True]) == [0, 0, 0]


def tau_from_oracle(g) -> list[int]:
    L = g.n + 2
    rows = oracle_prefixes(g, "min", L)
    out = []
    for u in range(g.n):
        own = (g.label[u],) * L
        if rows[u] < own:
            out.append(1)
        elif rows[u] == own:
            out.append(2)
        else:
            out.append(3)
    return out


def test_tau_matches_oracle_exhaustively(exhaustive_graphs):
    for g in exhaustive_graphs:
        assert compute_tau(g) == tau_from_oracle(g)


def test_tau_matches_oracle_random():
    for g in random_corpus():
        assert compute_tau(g) == tau_from_oracle(g)


def test_edge_local_invariants(mixed_corpus):
    for g in mixed_corpus:
        assert tau_invariant_violations(g, compute_tau(g)) == []


def test_tau2_prefix_is_pure_label_run(exhaustive_graphs):
    for g in exhaustive_graphs:
        tau = compute_tau(g)
        L = g.n + 2
        rows = oracle_prefixes(g, "min", L)
        for u in range(g.n):
            if tau[u] == 2:
                assert rows[u] == (g.label[u],) * L


def test_tau_monotone_in_min_order():
    # among equal-label nodes, larger tau never means a smaller minimum
    for g in small_corpus(3, 2):
        tau = compute_tau(g)
        rank = _group_index(oracle_partition(g, "min").groups, g.n)
        for u in range(g.n):
            for v in range(g.n):
                if g.label[u] == g.label[v] and tau[u] < tau[v]:
                    assert rank[u] < rank[v]


@given(
    n=st.integers(1, 12),
    sigma=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_tau_oracle_property(n, sigma, seed):
    g = gen("random", n, min(sigma, n), seed=seed, density=0.4)
    assert compute_tau(g) == tau_from_oracle(g)


@settings(deadline=None, max_examples=60)
@given(g=generated_graphs())
def test_tau_matches_oracle_on_generators(g):
    # transposed rows break label ties by descending id, as max runs them
    for h in (g, transpose_alphabet(g)):
        assert compute_tau(h) == tau_from_oracle(h)


@pytest.mark.parametrize(
    "kind, n, sigma, density",
    [
        pytest.param("random", 10_000, 4, 0.3, id="random-10000-4"),
        pytest.param("random", 2_000, 50, 0.3, id="random-2000-50"),
        pytest.param("random", 1_000, 200, 0.5, id="random-1000-200-dense"),
        pytest.param("cycle", 10_000, 3, 0.3, id="cycle-10000-3"),
        pytest.param("debruijn", 2**13, 2, 0.3, id="debruijn-8192-2"),
        pytest.param("debruijn", 3**7, 3, 0.3, id="debruijn-2187-3"),
        pytest.param("chain-feeding-sink", 10_000, 2, 0.3, id="chain-feeding-sink-10000-2"),
    ],
)
def test_tau_and_psi_local_recurrence_at_scale(kind, n, sigma, density):
    # too large for the oracle: check the recurrences that define tau 2 and
    # 3 and psi, node by node. A tau=2 node has a tau=2 equal-label
    # predecessor, so its backward walk never ends; a tau=3 node's equal-
    # label predecessors are tau=3 with a psi at least one lower, so its walk
    # is acyclic. Tau and psi equal the successor-scanning references.
    g0 = gen(kind, n, sigma, seed=5, density=density)
    for g in (g0, transpose_alphabet(g0)):
        tau = compute_tau(g)
        assert tau == _compute_tau_scanning(g)
        assert tau_invariant_violations(g, tau) == []
        active = [t == 3 for t in tau]
        psi = _run_heights(g, active)
        assert psi == _equal_label_heights_scanning(g, active)
        for v in range(g.n):
            eq = [p for p in g.preds[v] if g.label[p] == g.label[v]]
            if tau[v] == 2:
                assert psi[v] == 0 and any(tau[p] == 2 for p in eq), v
            elif tau[v] == 3:
                assert all(tau[p] == 3 for p in eq), v
                assert psi[v] == 1 + max([psi[p] for p in eq], default=0), v
            else:
                assert psi[v] == 0, v

