"""Acceptance gate: six criteria, one printed pass/fail line each.

Run with plain pytest; the verdict lines print straight to the terminal even
under output capture.
"""

from __future__ import annotations

import random
import time

from gsa import (
    EngineStats,
    make_graph,
    max_partition,
    min_partition,
    minmax_partition,
    transpose_alphabet,
)
from gsa.bench import bench_scaling
from gsa.classify import compute_tau
from gsa.driver import _group_index
from gsa.generators import gen
from gsa.graph import trim_for_kinds
from gsa.merge import _run_heights
from gsa.oracle import oracle_minmax, oracle_partition, oracle_prefixes
from gsa.reduction import build_reduced_graph, explore

from conftest import (
    FIG_LABELS,
    FIG_MINMAX,
    FIG_PREDS,
    FIG_TAU,
    random_corpus,
    small_corpus,
)
from corpus import full_labelings, graphs
from test_driver import _keys


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def _acceptance_corpora():
    exhaustive = small_corpus()
    rnd = random_corpus()
    return exhaustive, rnd


def test_criterion_1_reference_goldens(capsys):
    g = make_graph(FIG_LABELS, FIG_PREDS, sigma=4)
    ok = compute_tau(g) == FIG_TAU
    ok = ok and minmax_partition(g).groups == _keys(FIG_MINMAX)
    best = min(
        _timed(lambda: (compute_tau(g), minmax_partition(g))) for _ in range(10)
    )
    ok = ok and best < 1e-3
    _verdict(
        capsys, 1, "reference-graph goldens", ok, f"best run {best * 1e6:.0f} us"
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_exhaustive_oracle_equivalence(capsys, ascending_n4):
    # every graph with n <= 3 and sigma <= 2, in every id order; a sample of
    # those with n = 4 and sigma <= 2; and every label-ascending one with
    # n = 4 and sigma <= 3, the smallest graphs that reach a second level
    checked = 0
    ok = True
    n4 = list(graphs(4, full_labelings(4, 2)))
    for g in small_corpus() + random.Random(0).sample(n4, 10_000) + ascending_n4:
        ok = ok and _all_three_match(g)
        checked += 1
    _verdict(
        capsys, 2, "exhaustive oracle equivalence", ok, f"{checked} graphs"
    )


def _all_three_match(g) -> bool:
    return (
        min_partition(g) == oracle_partition(g, "min")
        and max_partition(g) == oracle_partition(g, "max")
        and minmax_partition(g) == oracle_minmax(g)
    )


def test_criterion_3_randomized_oracle_equivalence(capsys):
    ok = True
    checked = 0
    for n in (10, 50, 200):
        for i in range(100):
            sigma = (2, 4, 16)[i % 3]
            g = gen("random", n, min(sigma, n), seed=n * 10_000 + i, density=0.35)
            ok = ok and _all_three_match(g)
            checked += 1
    _verdict(
        capsys, 3, "randomized oracle equivalence", ok, f"{checked} graphs"
    )


def test_criterion_4_structural_properties(capsys):
    exhaustive, rnd = _acceptance_corpora()
    ok = True

    # trimming preserves minima
    for g in exhaustive + rnd:
        tau = compute_tau(g)
        L = g.n + 2
        gt = trim_for_kinds(g)
        ok = ok and oracle_prefixes(gt, "min", L) == oracle_prefixes(g, "min", L)

    # exploration prefix correctness and the order-preservation theorem
    for g in exhaustive:
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        rows = oracle_prefixes(g, "min", g.n + 2)
        nodes3 = [u for u in range(g.n) if tau[u] == 3]
        nodes1 = [u for u in range(g.n) if tau[u] == 1]
        ex3 = explore(gt, tau, nodes3, 3)
        ex1 = explore(g, tau, nodes1, 1)
        for nodes, ex in ((nodes3, ex3), (nodes1, ex1)):
            for u, key in zip(nodes, ex.keys):
                gamma = key[:-2]
                ok = ok and gamma == rows[u][: len(gamma)]
        if len(nodes3) >= 2:
            rg = build_reduced_graph(gt, nodes3, ex3.keys, ex3.frontiers)
            pr = _group_index(oracle_partition(g, "min").groups, g.n)
            rr = _group_index(oracle_partition(rg.graph, "min").groups, rg.graph.n)
            nm = rg.node_map
            ok = ok and all(
                (pr[nm[i]] < pr[nm[j]]) == (rr[i] < rr[j])
                for i in range(len(nm))
                for j in range(len(nm))
            )

    # recursed class never exceeds half the nodes
    for g in exhaustive + rnd:
        stats = EngineStats()
        min_partition(g, stats=stats)
        for lv in stats.levels:
            if lv.n1 > 0 and lv.n3 > 0:
                ok = ok and lv.reduced_n <= lv.n // 2

    # no tau=1 node carries the smallest used character (and dually for tau=3)
    for g in exhaustive + rnd:
        tau = compute_tau(g)
        used = sorted(set(g.label))
        ok = ok and not any(
            tau[u] == 1 and g.label[u] == used[0] for u in range(g.n)
        )
        ok = ok and not any(
            tau[u] == 3 and g.label[u] == used[-1] for u in range(g.n)
        )

    # psi-order observation on equal-label tau=3 pairs
    for g in exhaustive:
        tau = compute_tau(g)
        psi = _run_heights(g, [t == 3 for t in tau])
        rank = _group_index(oracle_partition(g, "min").groups, g.n)
        t3 = [u for u in range(g.n) if tau[u] == 3]
        for u in t3:
            for v in t3:
                if g.label[u] == g.label[v] and psi[u] != psi[v]:
                    ok = ok and (rank[u] < rank[v]) == (psi[v] < psi[u])

    _verdict(capsys, 4, "lemma-level property suites", ok)


def test_criterion_5_quadratic_scaling(capsys):
    records, slopes = bench_scaling(
        ["random"], [1000, 2000, 4000, 8000], repeats=2, seed=0
    )
    slope = slopes["random"]
    ok = slope <= 2.3

    # per-exploration edge work on a trimmed dense graph stays below 2n
    g = gen("random", 1000, 250, seed=1, density=0.5)
    stats = EngineStats()
    min_partition(g, stats=stats)
    peak = stats.peak_exploration_edges
    ok = ok and peak <= 2 * g.n

    _verdict(
        capsys,
        5,
        "empirical quadratic scaling",
        ok,
        f"slope {slope:.3f}, peak exploration work {peak} on n=1000",
    )


def test_criterion_6_duality(capsys):
    # max_partition runs the engine on the transposed greatest-label runs of
    # g, not on transpose_alphabet(g), so this holds only if those runs are
    # what the engine's trim keeps; the correctness of max rests on the
    # oracle equivalence of criteria 2 and 3
    exhaustive, rnd = _acceptance_corpora()
    ok = True
    for g in exhaustive + rnd:
        fwd = max_partition(g).groups
        rev = tuple(reversed(min_partition(transpose_alphabet(g)).groups))
        ok = ok and fwd == rev
    _verdict(capsys, 6, "min/max duality under alphabet transposition", ok)
