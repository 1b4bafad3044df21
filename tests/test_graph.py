"""Graph representation, validation, DFA import, transposition, trimming, I/O."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gsa
from gsa import (
    GraphFormatError,
    format_graph,
    from_dfa,
    make_graph,
    min_partition,
    parse_graph,
    transpose_alphabet,
    validate,
)
from gsa.classify import compute_tau
from gsa.generators import gen
from gsa.graph import InvalidGraphError, trim_for_kinds
from gsa.oracle import oracle_prefixes

from conftest import FIG_LABELS, FIG_PREDS, small_corpus


def test_validate_fig_graph_ok(fig_graph):
    assert validate(fig_graph).ok


def test_validate_single_self_loop():
    g = make_graph([0], [[0]])
    assert validate(g).ok


def test_validate_missing_predecessor():
    g = make_graph([0, 0], [[0, 1], []])
    rep = validate(g)
    assert not rep.ok
    assert any(rule == "in-degree" for rule, _, _ in rep.violations)


def test_validate_determinism_violation():
    # node 0 has two successors labeled 0
    g = make_graph([0, 0, 0], [[0, 1, 2], [0], [0]])
    rep = validate(g)
    assert any(rule == "determinism" for rule, _, _ in rep.violations)


def test_validate_unused_character():
    g = make_graph([0], [[0]], sigma=2)
    rep = validate(g)
    assert any(rule == "alphabet" for rule, _, _ in rep.violations)


def test_validate_inconsistent_succs_index():
    good = make_graph([0, 1], [[1], [0]], sigma=2)
    bad = gsa.LabeledGraph(
        n=2,
        sigma=2,
        label=good.label,
        preds=good.preds,
        succs=((0,), (1,)),  # wrong on purpose
    )
    rep = validate(bad)
    assert any(rule == "index" for rule, _, _ in rep.violations)


def test_from_dfa_fig_example():
    # the reference graph minus node 0's self-loop, with letter names
    edges = [
        (0, 1, "a"),
        (0, 2, "b"),
        (0, 3, "c"),
        (1, 4, "c"),
        (2, 5, "a"),
        (3, 6, "c"),
        (3, 5, "a"),
        (4, 4, "c"),
        (6, 6, "c"),
    ]
    g, charmap = from_dfa(7, edges, initial=0)
    assert charmap == {"a": 1, "b": 2, "c": 3}
    assert g == make_graph(FIG_LABELS, FIG_PREDS, sigma=4)


def test_from_dfa_one_state():
    g, charmap = from_dfa(1, [], initial=0)
    assert g == make_graph([0], [[0]], sigma=1)
    assert charmap == {}


def test_from_dfa_rejects_input_inconsistency():
    with pytest.raises(GraphFormatError):
        from_dfa(3, [(0, 2, "a"), (1, 2, "b"), (0, 1, "a")], initial=0)


def test_from_dfa_rejects_edge_into_initial():
    with pytest.raises(GraphFormatError):
        from_dfa(2, [(0, 1, "a"), (1, 0, "a")], initial=0)


def test_from_dfa_output_validates():
    edges = [(0, 1, "x"), (1, 2, "y"), (2, 1, "x")]
    g, _ = from_dfa(3, edges, initial=0)
    assert validate(g).ok


def test_transpose_definition():
    g = make_graph([0, 1, 2, 3], [[1], [2], [3], [0]], sigma=4)
    assert transpose_alphabet(g).label == (3, 2, 1, 0)


def test_transpose_involution_fixed_point_sigma1():
    g = make_graph([0, 0], [[1], [0]], sigma=1)
    assert transpose_alphabet(g) == g


@given(
    n=st.integers(2, 12),
    sigma=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_transpose_involution(n, sigma, seed):
    g = gen("random", n, min(sigma, n), seed=seed, density=0.4)
    assert transpose_alphabet(transpose_alphabet(g)) == g


def test_trim_fig_graph_unchanged(fig_graph):
    tau = compute_tau(fig_graph)
    assert trim_for_kinds(fig_graph, tau) == fig_graph


def test_trim_removes_witness_edge():
    # node 1 is tau=1 via its label-0 predecessor; the edge from the label-2
    # node 2 into node 1 can never carry node 1's minimum
    labels = [0, 1, 2]
    preds = [[0], [0, 2], [0]]
    g = make_graph(labels, preds, sigma=3)
    assert validate(g).ok
    tau = compute_tau(g)
    assert tau[1] == 1
    gt = trim_for_kinds(g, tau)
    assert 2 not in gt.preds[1]
    L = g.n + 2
    assert oracle_prefixes(gt, "min", L) == oracle_prefixes(g, "min", L)


def test_trim_all_tau2_unchanged():
    g = make_graph([0, 0, 0], [[2], [0], [1]], sigma=1)
    tau = compute_tau(g)
    assert tau == [2, 2, 2]
    assert trim_for_kinds(g, tau) == g


def test_trim_preserves_minima_exhaustively():
    for g in small_corpus(3, 2):
        tau = compute_tau(g)
        gt = trim_for_kinds(g, tau)
        assert validate(gt).ok
        L = g.n + 2
        assert oracle_prefixes(gt, "min", L) == oracle_prefixes(g, "min", L)
        for v, ps in enumerate(gt.preds):
            if tau[v] == 1:
                assert all(gt.label[u] <= gt.label[v] for u in ps)


def test_file_roundtrip(fig_graph):
    assert parse_graph(format_graph(fig_graph)) == fig_graph


def test_parse_rejects_inconsistent_labels():
    text = "gsa-graph v1 2 2\n0\t1\t0\n0\t1\t1\n0\t0\t0\n"
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_bad_header():
    with pytest.raises(GraphFormatError):
        parse_graph("nope 1 1\n")


def test_parse_rejects_node_count_beyond_file():
    # checked before any per-node allocation
    with pytest.raises(GraphFormatError):
        parse_graph("gsa-graph v1 1000000000 2\n")
    # a short invalid file still parses, so validate can report it
    assert parse_graph("gsa-graph v1 2 1\n0\t0\t0\n").n == 2


def test_parse_accepts_comments():
    text = "# a comment\ngsa-graph v1 1 1\n0\t0\t0\n"
    g = parse_graph(text)
    assert g.n == 1 and g.preds == ((0,),)


def test_parse_line_ends():
    text = "# c\ngsa-graph v1 2 2\n0\t0\t0\n0\t1\t1\n"
    g = parse_graph(text)
    assert parse_graph(text.replace("\n", "\r\n")) == g
    assert parse_graph(text.replace("\n", "\r")) == g
    # no other character ends a line
    with pytest.raises(GraphFormatError, match="bad edge line"):
        parse_graph(text.replace("0\n0", "0\f0"))


@given(
    n=st.integers(1, 10),
    sigma=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_roundtrip_random(n, sigma, seed):
    g = gen("random", n, min(sigma, n), seed=seed, density=0.5)
    assert parse_graph(format_graph(g)) == g


def _sample_graph(kind, n, sigma, seed):
    if kind == "debruijn":
        return gen(kind, sigma ** max(1, n.bit_length() // sigma), sigma)
    if kind == "chain-feeding-sink":
        return gen(kind, max(n, 2), 2, seed=seed)
    return gen(kind, n, min(sigma, n), seed=seed, density=0.5)


def _assert_stored_order(g):
    for v, ps in enumerate(g.preds):
        assert list(ps) == sorted(ps, key=lambda u: (g.label[u], u)), v
    for u, ss in enumerate(g.succs):
        assert list(ss) == sorted(ss), u


@given(
    kind=st.sampled_from(["random", "cycle", "debruijn", "chain-feeding-sink"]),
    n=st.integers(1, 14),
    sigma=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_rows_in_label_order_and_roundtrip(kind, n, sigma, seed):
    g = _sample_graph(kind, n, sigma, seed)
    _assert_stored_order(g)
    g2 = parse_graph(format_graph(g))
    _assert_stored_order(g2)
    assert g2 == g


def test_make_graph_orders_rows_by_label_then_id():
    # sources 3, 1, 2, 0 carry labels 0, 1, 0, 1
    g = make_graph([1, 1, 0, 0, 2], [[4], [4], [4], [4], [3, 1, 2, 0]], sigma=3)
    assert g.preds[4] == (2, 3, 0, 1)
    assert g.succs[0] == g.succs[3] == (4,)


def test_parse_sorts_rows_of_an_unordered_file():
    text = "gsa-graph v1 3 2\n2\t0\t0\n0\t2\t1\n1\t0\t0\n0\t1\t0\n"
    g = parse_graph(text)
    assert g.preds == ((1, 2), (0,), (0,))
    assert g.succs == ((1, 2), (0,), (0,))
    assert g == make_graph([0, 0, 1], [[2, 1], [0], [0]], sigma=2)


@given(
    n=st.integers(2, 14),
    sigma=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_trim_keeps_prefix_or_suffix(n, sigma, seed):
    # trimming g keeps a prefix of each tau=1 row; trimming the transposed
    # graph keeps a prefix of its reversed rows, which is a suffix of g's
    g = gen("random", n, min(sigma, n), seed=seed, density=0.6)
    for h in (g, transpose_alphabet(g)):
        tau = compute_tau(h)
        gt = trim_for_kinds(h, tau)
        assert validate(gt).ok
        if h is g:
            # a transposed row breaks label ties by descending id
            _assert_stored_order(gt)
        for v, (ps, kept) in enumerate(zip(h.preds, gt.preds)):
            if tau[v] == 1:
                assert kept == ps[: len(kept)]
                assert all(h.label[u] <= h.label[v] for u in kept)
                assert all(h.label[u] > h.label[v] for u in ps[len(kept) :])
            else:
                assert kept == ps
        if gt.preds == h.preds:
            assert gt is h


def test_trim_returns_input_when_nothing_dropped(fig_graph):
    tau = compute_tau(fig_graph)
    assert trim_for_kinds(fig_graph, tau) is fig_graph


@given(
    kind=st.sampled_from(["random", "cycle", "debruijn", "chain-feeding-sink"]),
    n=st.integers(1, 14),
    sigma=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_transpose_keeps_rows_label_sorted(kind, n, sigma, seed):
    g = _sample_graph(kind, n, sigma, seed)
    gt = transpose_alphabet(g)
    for ps in gt.preds:
        assert [gt.label[u] for u in ps] == sorted(gt.label[u] for u in ps)
    assert transpose_alphabet(gt) == g


def test_unsorted_row_fails_order_rule():
    good = make_graph([0, 1, 1], [[0], [0, 2], [1]], sigma=2)
    assert good.preds[1] == (0, 2)
    bad = gsa.LabeledGraph(
        n=3,
        sigma=2,
        label=good.label,
        preds=((0,), (2, 0), (1,)),  # label 1 before label 0 on purpose
        succs=good.succs,
    )
    rep = validate(bad)
    assert [rule for rule, _, _ in rep.violations] == ["order"]
    assert rep.violations[0][1] == "node 1"
    assert validate(gsa.LabeledGraph(3, 2, good.label, good.preds, good.succs)).ok
    with pytest.raises(InvalidGraphError):
        min_partition(bad)


def test_parse_and_validate_memory_on_a_file_without_edges():
    # a comment line and a header claiming n close to the text length
    header = "gsa-graph v1 199900 1\n"
    text = "#" + "x" * (199_975 - len(header) - 2) + "\n" + header
    assert len(text) == 199_975
    tracemalloc.start()
    try:
        g = parse_graph(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = validate(g)
        validate_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.n == 199_900
    assert parse_peak < 20 * 2**20
    assert validate_peak < 10 * 2**20
    assert [v for v in rep.violations if v[0] == "in-degree"] == [
        ("in-degree", "node 0", "199900 of 199900 nodes have no predecessor")
    ]
