"""Graph representation, validation, DFA import, transposition, trimming, I/O."""

from __future__ import annotations

import io
import random
import re
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gsa
from gsa import (
    GraphFormatError,
    format_graph,
    from_dfa,
    make_graph,
    max_partition,
    min_partition,
    minmax_partition,
    parse_graph,
    transpose_alphabet,
    validate,
)
from gsa.classify import compute_tau
from gsa.generators import KINDS, gen
from gsa.graph import (
    HEADER_PREFIX,
    InvalidGraphError,
    _assemble,
    _line_chunks,
    _trim_to_greatest_runs,
    trim_for_kinds,
)
from gsa.oracle import oracle_minmax, oracle_partition, oracle_prefixes

from conftest import FIG_LABELS, FIG_PREDS, generated_graphs, small_corpus


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


# every public name that takes a graph and validates it first
VALIDATING_CALLS = [
    min_partition,
    max_partition,
    minmax_partition,
    lambda g: oracle_partition(g, "min"),
    lambda g: oracle_partition(g, "max"),
    oracle_minmax,
    lambda g: oracle_prefixes(g, "min", 3),
]


@pytest.mark.parametrize(
    "n, sigma, labels, preds, rule",
    [
        pytest.param(2, 2, (0, 1), ((1,),), "shape", id="shape"),
        pytest.param(3, 2, (0, 1, 2), ((0,), (0,), (1,)), "label-range", id="label-range"),
        pytest.param(2, 1, (0, 0), ((0, 1), ()), "in-degree", id="in-degree"),
        pytest.param(3, 1, (0, 0, 0), ((0, 1, 2), (0,), (0,)), "determinism", id="determinism"),
        pytest.param(1, 2, (0,), ((0,),), "alphabet", id="alphabet"),
        pytest.param(2, 2, (0, 1), ((5,), (0,)), "edge-range", id="source-past-n"),
        pytest.param(2, 2, (0, 1), ((-1,), (0,)), "edge-range", id="negative-source"),
        pytest.param(3, 2, (0, 1, 1), ((0,), (2, 0), (1,)), "order", id="order"),
        pytest.param(1, 1, ("a",), ((0,),), "type", id="str-label"),
        pytest.param(1, 1, (0.5,), ((0,),), "type", id="float-label"),
        pytest.param(1, 1, (0,), (None,), "type", id="none-row"),
        pytest.param(2, 1, (0, 0), ((1,), ("0",)), "type", id="str-source"),
        pytest.param(1, 1, (0,), ((0.0,),), "type", id="float-source"),
        pytest.param(1, "1", (0,), ((0,),), "type", id="str-sigma"),
        pytest.param(1.0, 1, (0,), ((0,),), "type", id="float-n"),
        pytest.param(1, 1, None, ((0,),), "type", id="none-label-field"),
        pytest.param(1, 1, (0,), None, "type", id="none-preds-field"),
        pytest.param(1, 1, 0, ((0,),), "type", id="int-label-field"),
        pytest.param(1, 1, (0,), 0, "type", id="int-preds-field"),
        pytest.param(2, 1, (0, 0), ({1}, {0}), "type", id="set-rows"),
    ],
)
def test_every_validate_rule_is_named_and_rejected(n, sigma, labels, preds, rule):
    # built directly, so validate checks the rows as well
    g = gsa.LabeledGraph(n, sigma, labels, preds)
    assert [r for r, _, _ in validate(g).violations] == [rule]
    for fn in VALIDATING_CALLS:
        with pytest.raises(InvalidGraphError, match=rule):
            fn(g)


@st.composite
def malformed_graphs(draw):
    """A LabeledGraph whose fields and rows are drawn from ints, bools,
    floats, strings, None, sets, dicts, lists and tuples.

    One field (n, sigma, label, preds or a row), all of them or none may
    hold such junk; the others hold ints, or sequences of ints of length n,
    so the rules behind the type rule are reached too."""
    n = draw(st.integers(0, 3))
    small = st.integers(-1, n)
    value = st.one_of(
        small, st.booleans(), st.floats(-1, 4), st.text(max_size=2), st.none(),
        st.sets(small, max_size=2), st.dictionaries(small, small, max_size=2),
    )
    bad = draw(st.sampled_from(["", "n", "sigma", "label", "preds", "row", "all"]))

    def seq(item, lo=0, hi=4):
        lists = st.lists(item, min_size=lo, max_size=hi)
        return lists.flatmap(lambda xs: st.sampled_from([xs, tuple(xs)]))

    def field(good, name):
        if bad in (name, "all"):
            return draw(st.one_of(good, seq(value), value))
        return draw(good)

    row = seq(small, 1, 2)
    if bad in ("row", "all"):
        row = st.one_of(row, seq(value), value)
    return gsa.LabeledGraph(
        field(st.just(n), "n"),
        field(st.integers(0, n + 1), "sigma"),
        field(seq(small, n, n), "label"),
        field(seq(row, n, n), "preds"),
    )


@settings(deadline=None, max_examples=300)
@given(g=malformed_graphs())
# one graph for each rule validate names, then one valid graph
@example(g=gsa.LabeledGraph(2, 2, (0, 1), ((1,),)))  # shape
@example(g=gsa.LabeledGraph(3, 2, (0, 1, 2), ((0,), (0,), (1,))))  # label-range
@example(g=gsa.LabeledGraph(2, 1, (0, 0), ((0, 1), ())))  # in-degree
@example(g=gsa.LabeledGraph(3, 1, (0, 0, 0), ((0, 1, 2), (0,), (0,))))  # determinism
@example(g=gsa.LabeledGraph(1, 2, (0,), ((0,),)))  # alphabet
@example(g=gsa.LabeledGraph(2, 2, (0, 1), ((5,), (0,))))  # edge-range
@example(g=gsa.LabeledGraph(3, 2, (0, 1, 1), ((0,), (2, 0), (1,))))  # order
@example(g=gsa.LabeledGraph(2, 1, (0, 0), ({1}, {0})))  # type
@example(g=gsa.LabeledGraph(2, 2, [0, 1], [[1], [0]]))
def test_malformed_graphs_raise_only_invalid_graph_error(g):
    # transpose_alphabet and format_graph do not validate, so are not called
    rep = validate(g)
    assert isinstance(rep, gsa.ValidationReport) and rep.ok == (not rep.violations)
    for fn in VALIDATING_CALLS:
        try:
            fn(g)
        except InvalidGraphError:
            assert not rep.ok
        else:
            assert rep.ok


def test_bool_counts_as_an_int():
    # False and True are the ints 0 and 1
    g = gsa.LabeledGraph(2, 2, (False, True), ((True,), (0,)))
    assert validate(g).ok
    assert min_partition(g).groups == ((0,), (1,))
    assert make_graph([0, True], [[True], [False]]).preds == ((1,), (0,))


@pytest.mark.parametrize(
    "preds, rule",
    [
        pytest.param(((5,), (0,)), "edge-range", id="source-past-n"),
        pytest.param(((-1,), (0,)), "edge-range", id="negative-source"),
        pytest.param(((1,), (1, 0)), "order", id="row-out-of-label-order"),
    ],
)
def test_replace_clears_rows_checked(preds, rule):
    # rows_checked lets validate skip the row checks of a make_graph graph;
    # a graph made from one by dataclasses.replace gets them again
    good = make_graph([0, 1], [[1], [0]], sigma=2)
    assert good.rows_checked
    bad = replace(good, preds=preds)
    assert not bad.rows_checked
    rep = validate(bad)
    assert [r for r, _, _ in rep.violations] == [rule]
    for fn in (min_partition, max_partition, minmax_partition):
        with pytest.raises(InvalidGraphError, match=rule):
            fn(bad)


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


def test_from_dfa_reads_an_iterator_of_edges_once():
    edges = [(0, 1, "a"), (1, 2, "b"), (2, 1, "a")]
    assert from_dfa(3, iter(edges), 0) == from_dfa(3, edges, 0)
    assert from_dfa(2, iter([(0, 1, "a")]), 0) == from_dfa(2, [(0, 1, "a")], 0)


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


@pytest.mark.parametrize(
    "num_states, edges, initial, message",
    [
        pytest.param(2, [(0, 1, "a")], 2, "initial state 2 out of range", id="initial"),
        pytest.param(2, [(0, 2, "a")], 0, r"edge \(0,2\) out of range", id="edge"),
        pytest.param(
            3, [(0, 1, "a"), (0, 2, "a")], 0, "state 0 is nondeterministic", id="nondeterministic"
        ),
        pytest.param(3, [(0, 1, "a")], 0, "state 2 has no incoming edge", id="unreachable"),
        pytest.param(
            3, [(0, 1, "a"), (0, 2, 1)], 0, "'<' not supported", id="unordered-chars"
        ),
        pytest.param(2, [(0, 1, ["a"])], 0, "unhashable type", id="unhashable-char"),
        pytest.param(2.0, [(0, 1, "a")], 0, "num_states must be an int", id="float-states"),
        pytest.param(2, [(0, 1, "a")], None, "initial state None out of range", id="none-initial"),
        pytest.param(2, [(0, 1.0, "a")], 0, r"edge \(0,1.0\) out of range", id="float-state"),
        pytest.param(2, None, 0, "not iterable", id="edges-not-iterable"),
        pytest.param(2, [(0, 1)], 0, "triples", id="edge-not-a-triple"),
    ],
)
def test_from_dfa_rejects(num_states, edges, initial, message):
    with pytest.raises(GraphFormatError, match=message):
        from_dfa(num_states, edges, initial)


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


def _trim_tau1(g, tau):
    """The paper's trim, kept as the reference: a tau=1 node drops its edges
    from greater-labeled sources; every other row is kept whole."""
    label = g.label
    rows = [
        [u for u in ps if label[u] <= label[v]] if tau[v] == 1 else ps
        for v, ps in enumerate(g.preds)
    ]
    return make_graph(label, rows, sigma=g.sigma)


def _edges(g):
    return {(u, v) for v, ps in enumerate(g.preds) for u in ps}


def test_trim_fig_graph_keeps_least_label_runs(fig_graph):
    # nodes 4 and 5 lose their edges from the greater-labeled 4 and 3; the
    # tau=1 trim drops nothing here, since node 5 is tau=3 and node 4's
    # sources are labeled at most 3
    gt = trim_for_kinds(fig_graph)
    assert gt.preds == ((0,), (0,), (0,), (0,), (1,), (2,), (3, 6))
    # a row the trim keeps whole is the input's row object
    kept = [gt.preds[v] is fig_graph.preds[v] for v in range(7)]
    assert kept == [True, True, True, True, False, False, True]
    assert validate(gt).ok
    assert _trim_tau1(fig_graph, compute_tau(fig_graph)) == fig_graph


def test_trim_removes_witness_edge():
    # node 1 is tau=1 via its label-0 predecessor; the edge from the label-2
    # node 2 into node 1 can never carry node 1's minimum
    labels = [0, 1, 2]
    preds = [[0], [0, 2], [0]]
    g = make_graph(labels, preds, sigma=3)
    assert validate(g).ok
    tau = compute_tau(g)
    assert tau[1] == 1
    gt = trim_for_kinds(g)
    assert 2 not in gt.preds[1]
    L = g.n + 2
    assert oracle_prefixes(gt, "min", L) == oracle_prefixes(g, "min", L)


def test_trim_all_tau2_unchanged():
    g = make_graph([0, 0, 0], [[2], [0], [1]], sigma=1)
    tau = compute_tau(g)
    assert tau == [2, 2, 2]
    assert trim_for_kinds(g) == g


def test_trim_preserves_minima_exhaustively():
    # the least-label trim keeps a subset of the paper's trim's edges, and
    # both keep every minimum
    for g in small_corpus(3, 2):
        tau = compute_tau(g)
        gt = trim_for_kinds(g)
        ref = _trim_tau1(g, tau)
        assert validate(gt).ok
        L = g.n + 2
        want = oracle_prefixes(g, "min", L)
        assert oracle_prefixes(gt, "min", L) == want
        assert oracle_prefixes(ref, "min", L) == want
        assert _edges(gt) <= _edges(ref)
        for v, ps in enumerate(gt.preds):
            if tau[v] == 1:
                assert all(gt.label[u] <= gt.label[v] for u in ps)


def _trim_corpus():
    yield from small_corpus(3, 3)
    for n, sigma, density in ((9, 3, 0.5), (64, 4, 0.5), (300, 4, 0.3), (300, 60, 0.5)):
        yield gen("random", n, sigma, seed=n, density=density)
    yield gen("cycle", 200, 3)
    yield gen("debruijn", 256, 2)
    yield gen("debruijn", 243, 3)
    yield gen("chain-feeding-sink", 200, 2)


def test_trimmed_graph_is_valid_and_keeps_min_partition():
    # the engine runs on trimmed graphs, so trimming must keep a graph valid
    # and its min partition; on the transposed graph, its max partition
    for g in _trim_corpus():
        for h in (g, transpose_alphabet(g)):
            ht = trim_for_kinds(h)
            assert validate(ht).ok
            assert min_partition(ht).groups == min_partition(h).groups


def test_file_roundtrip(fig_graph):
    assert parse_graph(format_graph(fig_graph)) == fig_graph


def test_parse_rejects_inconsistent_labels():
    text = "gsa-graph v1 2 2\n0\t1\t0\n0\t1\t1\n0\t0\t0\n"
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_bad_header():
    with pytest.raises(GraphFormatError):
        parse_graph("nope 1 1\n")


@pytest.mark.parametrize("header", ["gsa-graph v1 -1 2", "gsa-graph v1 2 -1"])
def test_parse_rejects_negative_n_or_sigma(header):
    with pytest.raises(GraphFormatError, match="negative n or sigma"):
        parse_graph(header + "\n0\t0\t0\n")


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


def _parse_graph_stringio(text):
    """Reference parser: lines come from ``io.StringIO(text, newline=None)``
    and keep their ``\\n``; every check and message is parse_graph's."""
    lines = io.StringIO(text, newline=None)
    first = next((ln for ln in lines if ln[0] not in "#\n"), "").rstrip("\n")
    if not first:
        raise GraphFormatError("empty graph file")
    head = first.split()
    if len(head) != 4 or " ".join(head[:2]) != HEADER_PREFIX:
        raise GraphFormatError(f"bad header: {first!r}")
    try:
        n, sigma = int(head[2]), int(head[3])
    except ValueError as e:
        raise GraphFormatError(f"bad header numbers: {first!r}") from e
    if n < 0 or sigma < 0:
        raise GraphFormatError("negative n or sigma")
    if n > len(text):
        raise GraphFormatError(
            f"header claims {n} nodes in a file of {len(text)} characters"
        )
    labels, canon, succ = {}, {}, defaultdict(list)
    for ln in lines:
        try:
            a, b, z = ln.split("\t")
            u, v, c = int(a), int(b), int(z)
        except ValueError as e:
            if ln[0] in "#\n":
                continue
            bad = ln.rstrip("\n")
            raise GraphFormatError(f"bad edge line: {bad!r}") from e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        if not 0 <= c < sigma:
            raise GraphFormatError(f"char {c} out of range")
        old = labels.setdefault(v, c)
        if old != c:
            raise GraphFormatError(f"node {v} has inconsistent labels {old} and {c}")
        succ[u].append(canon.setdefault(v, v))
    for row in succ.values():
        row.sort()
    ids = [canon.get(i, i) for i in range(n)]
    return _assemble(
        tuple([labels.get(v, 0) for v in ids]),
        [succ.get(u, ()) for u in ids],
        [[] if v in labels else () for v in ids],
        ids,
        sigma,
    )


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as e:
        return f"GraphFormatError: {e}"


def _assert_parses_like_stringio(text):
    lines = list(chain.from_iterable(_line_chunks(text)))
    assert lines == [ln.removesuffix("\n") for ln in io.StringIO(text, newline=None)]
    assert _outcome(parse_graph, text) == _outcome(_parse_graph_stringio, text)


# line ends, the characters str.splitlines also breaks at, and field content
_ATOMS = [*"0123456789", "\t", " ", "#", "\n", "\r", "\r\n", "\f", "\v", "\x1c",
          "\x85", "\u2028"]


def _random_text(rng):
    """A header, then lines of atoms or edges over n = 4 and sigma = 3 (and
    one out of range), so some texts parse and the others fail each check."""
    ends = ["\n", "\r", "\r\n", "\f", ""]
    head = rng.choices(["gsa-graph v1 4 3", "gsa-graph v1 4 x", "gsa v1 4 3"], [8, 1, 1])[0]
    lines = [rng.choice(["", "\n", "# c\r\n", " "]), head]
    for _ in range(rng.randrange(8)):
        lines.append(rng.choices(ends, [3, 3, 3, 1, 1])[0])
        if rng.random() < 0.7:
            lines.append("\t".join(rng.choices("012234", k=3)))
        else:
            lines.append("".join(rng.choices(_ATOMS, k=rng.randrange(6))))
    lines.append(rng.choice(ends))
    return "".join(lines)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
def test_parse_matches_stringio_reader_on_random_texts(chunk, monkeypatch):
    monkeypatch.setattr(gsa.graph, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(3000):
        _assert_parses_like_stringio(_random_text(rng))
    # the empty text, blank texts, and last lines without a line end
    for text in ["", "\n", "\r\n", "gsa-graph v1 2 1\n0\t1\t0\n1\t0\t0",
                 "gsa-graph v1 2 1\r1\t0\t0\r0\t1\t0", "gsa-graph v1 1 1\r\n0\t0\tx"]:
        _assert_parses_like_stringio(text)


@pytest.mark.parametrize("shift", [-1, 0, 1, 2])
def test_parse_matches_stringio_reader_across_a_chunk_boundary(shift):
    # a comment after the header whose \r\n sits at the end of the first
    # chunk: straddling it in the text as given (shift 0), and ending it once
    # \r\n becomes \n (shift 1); a bad line follows the comment
    chunk = gsa.graph._CHUNK
    crlf = format_graph(gen("random", 600, 150, seed=3, density=0.5)).replace("\n", "\r\n")
    h = crlf.index("\n") + 1
    comment = "#" + "x" * (chunk - 2 + shift - h) + "\r\n"
    text = crlf[:h] + comment + crlf[h:]
    assert text[chunk - 1 + shift:chunk + 1 + shift] == "\r\n"
    assert len(text) > 2 * chunk
    assert parse_graph(text) == parse_graph(crlf)
    _assert_parses_like_stringio(text)
    bad = crlf[:h] + comment + "7\tq\t1\r\n" + crlf[h:]
    _assert_parses_like_stringio(bad)
    with pytest.raises(GraphFormatError, match=re.escape(repr("7\tq\t1"))):
        parse_graph(bad)


def _run_text(rng):
    """A header over n = 4 and sigma = 3, then edge lines that mostly repeat
    the v and c tokens of the line before, so that runs of one target hold
    the bad u, c and label cases, spelled two ways, and comments break
    them."""
    lines = [rng.choice(["gsa-graph v1 4 3", "gsa-graph v1 4 2"])]
    tail = "\t0\t0"
    for _ in range(rng.randrange(12)):
        r = rng.random()
        if r < 0.15:
            tail = "\t" + rng.choice("01234") + "\t" + rng.choice(["0", "00", "1", "2", "3"])
        elif r < 0.25:
            lines.append(rng.choice(["", "# c", "#" + tail, "x" + tail]))
            continue
        lines.append(rng.choice(["0", "1", "3", "03", "4", "-1", "x"]) + tail)
    return "\n".join(lines) + "\n"


def test_parse_matches_stringio_reader_on_runs_of_one_target():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(5000):
        text = _run_text(rng)
        _assert_parses_like_stringio(text)
        out = _outcome(parse_graph, text)
        outcomes.add(out.split(": ")[1].split(" ")[0] if isinstance(out, str) else "ok")
    # some texts parse, and each edge line check fails on some text
    assert outcomes == {"ok", "bad", "edge", "char", "node"}


def test_parse_rejects_a_second_run_with_another_label():
    # node 1's lines are two runs, apart, with labels 0 and 1
    text = "gsa-graph v1 3 2\n0\t1\t0\n2\t1\t0\n0\t0\t0\n1\t1\t1\n"
    with pytest.raises(GraphFormatError, match="^node 1 has inconsistent labels 0 and 1$"):
        parse_graph(text)


def test_parse_reads_a_run_broken_by_comments_and_blank_lines():
    whole = "gsa-graph v1 3 2\n0\t2\t1\n1\t2\t1\n2\t2\t1\n0\t0\t0\n1\t1\t0\n"
    # the comment repeats the run's v and c tokens after its first tab
    broken = whole.replace("\n1\t2\t1\n", "\n# c\n\n1\t2\t1\n#0\t2\t1\n\n")
    assert parse_graph(broken) == parse_graph(whole)
    assert parse_graph(whole).preds[2] == (0, 1, 2)


def test_parse_stores_one_int_object_per_node():
    # int() makes a new object for each id above 256; target 270 is spelled
    # 270 and 0270, in two runs
    n = 300
    lines = [f"{v - 1}\t{v}\t{int(v == 270)}" for v in range(1, n)]
    lines += [f"{n - 1}\t0\t0", "5\t0270\t1"]
    g = parse_graph(f"gsa-graph v1 {n} 2\n" + "\n".join(lines) + "\n")
    assert validate(g).ok
    assert g.preds[270] == (5, 269)
    # every node is a source, and each is stored as one object
    assert len({id(u) for ps in g.preds for u in ps}) == n


@pytest.mark.parametrize("source", ["3", "-1", "03"])
def test_parse_names_the_target_of_a_run_when_a_source_is_out_of_range(source):
    text = f"gsa-graph v1 3 2\n0\t01\t0\n1\t01\t0\n{source}\t01\t0\n"
    u = int(source)
    with pytest.raises(GraphFormatError, match=re.escape(f"edge ({u},1) out of range")):
        parse_graph(text)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parse_reads_edge_lines_in_any_order(kind, seed):
    g = _sample_graph(kind, 60, 3, seed)
    head, *edges = format_graph(g).splitlines()
    shuffled = list(edges)
    random.Random(seed).shuffle(shuffled)
    for order in (edges[::-1], shuffled):
        assert parse_graph("\n".join([head, *order]) + "\n") == g


@pytest.mark.parametrize("kind", KINDS)
def test_format_graph_writes_each_target_as_one_run(kind):
    # parse_graph converts a target's v and c once per run of its lines
    g = _sample_graph(kind, 300, 20, seed=3)
    tails = [ln.split("\t", 1)[1] for ln in format_graph(g).splitlines()[1:]]
    runs = 1 + sum(a != b for a, b in zip(tails, tails[1:]))
    assert runs == sum(1 for ps in g.preds if ps)
    assert len(set(tails)) == runs


@given(
    n=st.integers(1, 10),
    sigma=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
def test_roundtrip_random(n, sigma, seed):
    g = gen("random", n, min(sigma, n), seed=seed, density=0.5)
    assert parse_graph(format_graph(g)) == g


def test_debruijn_on_one_character_has_one_node():
    assert gen("debruijn", 1, 1) == make_graph([0], [[0]], sigma=1)
    for n in (2, 3, 8):
        with pytest.raises(ValueError, match="power of sigma"):
            gen("debruijn", n, 1)


def _sample_graph(kind, n, sigma, seed):
    if kind == "debruijn":
        return gen(kind, sigma ** max(1, n.bit_length() // sigma), sigma)
    if kind == "chain-feeding-sink":
        return gen(kind, max(n, 2), 2, seed=seed)
    return gen(kind, n, min(sigma, n), seed=seed, density=0.5)


def _assert_stored_order(g):
    for v, ps in enumerate(g.preds):
        assert list(ps) == sorted(ps, key=lambda u: (g.label[u], u)), v


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
    assert g.rows_checked and g2.rows_checked


def test_make_graph_orders_rows_by_label_then_id():
    # sources 3, 1, 2, 0 carry labels 0, 1, 0, 1
    g = make_graph([1, 1, 0, 0, 2], [[4], [4], [4], [4], [3, 1, 2, 0]], sigma=3)
    assert g.preds[4] == (2, 3, 0, 1)
    assert g.preds[:4] == ((4,),) * 4


@pytest.mark.parametrize(
    "labels, preds, message",
    [
        # the bad source sits in a row after the first; the message names its target
        ([0, 0, 0], [[0], [1, -1], [2]], "edge into 1 has source out of range for n=3"),
        ([0, 0, 0], [[0], [], [2, 3]], "edge into 2 has source out of range for n=3"),
        ([0, 0, 0], [[0], [1]], "got 3 labels but 2 predecessor lists"),
        ([0], [[0.0]], "node 0: predecessor 0.0 is not an int"),
        ([0, 0], [[1], ["0"]], "node 1: predecessor '0' is not an int"),
        ([0], [None], "node 0: predecessor row None is not a sequence"),
        (["a"], [[0]], "label 'a' of node 0 is not an int"),
        ([0, 0.5], [[1], [0]], "label 0.5 of node 1 is not an int"),
        (None, [[0]], "labels must be a sequence, not NoneType"),
        ([0], None, "preds must be a sequence, not NoneType"),
        ([0], 5, "preds must be a sequence, not int"),
        ([0], iter([[0]]), "preds must be a sequence, not list_iterator"),
        ([0], [{0: 1}], "node 0: predecessor row {0: 1} is not a sequence"),
        ([0, 0], [[1], {0}], "node 1: predecessor row {0} is not a sequence"),
    ],
    ids=[
        "source-below-0", "source-n", "length-mismatch", "float-source",
        "str-source", "none-row", "str-label", "float-label", "none-labels",
        "none-preds", "int-preds", "iterator-preds", "dict-row", "set-row",
    ],
)
def test_make_graph_rejects_bad_rows(labels, preds, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        make_graph(labels, preds)


def test_parse_sorts_rows_of_an_unordered_file():
    text = "gsa-graph v1 3 2\n2\t0\t0\n0\t2\t1\n1\t0\t0\n0\t1\t0\n"
    g = parse_graph(text)
    assert g.preds == ((1, 2), (0,), (0,))
    assert g.rows_checked
    assert g == make_graph([0, 0, 1], [[2, 1], [0], [0]], sigma=2)


@given(
    n=st.integers(2, 14),
    sigma=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_trim_keeps_prefix_or_suffix(n, sigma, seed):
    # each kept row is the leading run of the least label in the input row;
    # a transposed row is reversed, so trimming it keeps the greatest-label
    # run of g's row, a suffix, in reverse
    g = gen("random", n, min(sigma, n), seed=seed, density=0.6)
    for h in (g, transpose_alphabet(g)):
        gt = trim_for_kinds(h)
        assert validate(gt).ok
        if h is g:
            # a transposed row breaks label ties by descending id
            _assert_stored_order(gt)
        for v, (ps, kept) in enumerate(zip(h.preds, gt.preds)):
            least = [u for u in ps if h.label[u] == h.label[ps[0]]]
            assert list(kept) == least == list(ps[: len(kept)])
            if h is not g:
                top = [u for u in g.preds[v] if g.label[u] == g.label[g.preds[v][-1]]]
                assert list(kept) == top[::-1]
        if gt.preds == h.preds:
            assert gt is h


def _assert_greatest_runs_transpose_to_the_trim(g):
    # max_partition transposes only the greatest-label runs; the engine's
    # top-level trim must then see the rows it would have kept
    want = trim_for_kinds(transpose_alphabet(g))
    got = transpose_alphabet(_trim_to_greatest_runs(g))
    assert (got.n, got.sigma, got.label) == (want.n, want.sigma, want.label)
    assert got.preds == want.preds
    assert trim_for_kinds(got) is got


def test_greatest_runs_transpose_to_the_trim_exhaustively():
    for g in small_corpus(3, 3):
        _assert_greatest_runs_transpose_to_the_trim(g)


@given(generated_graphs())
def test_greatest_runs_transpose_to_the_trim(g):
    _assert_greatest_runs_transpose_to_the_trim(g)


def test_trim_returns_input_when_nothing_dropped(fig_graph):
    # every row of a trimmed graph holds one label
    gt = trim_for_kinds(fig_graph)
    assert gt is not fig_graph
    assert trim_for_kinds(gt) is gt
    cyc = gen("cycle", 12, 3)
    assert trim_for_kinds(cyc) is cyc


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
    )
    rep = validate(bad)
    assert [rule for rule, _, _ in rep.violations] == ["order"]
    assert rep.violations[0][1] == "node 1"
    assert validate(gsa.LabeledGraph(3, 2, good.label, good.preds)).ok
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


def _format_graph_per_edge(g):
    """Reference formatter: one f-string per edge."""
    out = [f"{HEADER_PREFIX} {g.n} {g.sigma}"]
    for v, ps in enumerate(g.preds):
        for u in sorted(ps):
            out.append(f"{u}\t{v}\t{g.label[v]}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,sigma", [(1, 1), (9, 3), (64, 4), (300, 20)])
def test_format_graph_matches_per_edge_formatter(kind, n, sigma):
    g = _sample_graph(kind, n, sigma, seed=n)
    assert format_graph(g) == _format_graph_per_edge(g)


def test_format_graph_without_edges():
    for g in (make_graph([], []), parse_graph("gsa-graph v1 3 2\n1\t1\t1\n")):
        assert format_graph(g) == _format_graph_per_edge(g)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
def test_parse_memory_beyond_the_text_and_graph(line_end):
    # reading lines must not copy the text at more than a byte per character
    text = format_graph(gen("random", 600, 150, seed=3, density=0.5))
    assert len(text) == 490_582
    text = text.replace("\n", line_end)
    tracemalloc.start()
    try:
        g = parse_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 600
    assert (peak - kept) / len(text) < 2
