"""Core graph representation and structural operations.

A :class:`LabeledGraph` is a deterministic, input-consistent, node-labeled
directed graph over a dense integer alphabet. Input consistency means every
edge entering a node carries the same character, so the character is stored on
the node itself. All algorithms in this package read strings by walking edges
backward, so predecessors are the one stored adjacency; the merge, the one
step that walks forward, derives the successor rows it needs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain


class GraphFormatError(ValueError):
    """Raised when a graph file or DFA description cannot be interpreted."""


class InvalidGraphError(ValueError):
    """Raised when an operation requires a valid graph and got an invalid one."""


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable deterministic, input-consistent labeled graph.

    Nodes are ``0..n-1``, characters are ``0..sigma-1`` ordered by integer
    value. ``preds[v]`` lists the sources of edges entering ``v`` sorted by
    their labels, so ``preds[v][0]`` carries the least label and
    ``preds[v][-1]`` the greatest; :func:`make_graph` breaks ties by id.
    A hand-built graph must keep this order; :func:`validate` reports a row
    out of label order under the rule ``order``.
    """

    n: int
    sigma: int
    label: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    # set by make_graph and parse_graph, whose labels and sources are ints
    # and whose rows are range-checked and in label order; lets validate
    # skip those checks. Not an init field, so dataclasses.replace clears it
    rows_checked: bool = field(default=False, init=False, compare=False, repr=False)

    def edge_count(self) -> int:
        return sum(len(p) for p in self.preds)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, str, str], ...]


def make_graph(
    labels: Sequence[int],
    preds: Sequence[Sequence[int]],
    sigma: int | None = None,
) -> LabeledGraph:
    """Build a LabeledGraph from per-node labels and predecessor lists.

    The input rows may be in any order. The stored ``preds[v]`` is sorted by
    (label of the source, source id). ``labels``, ``preds`` and each row must
    be sequences. Type- and range-checks every label and source, but does
    not validate; call :func:`validate` to check the structural assumptions.
    """
    for name, xs in (("labels", labels), ("preds", preds)):
        if not isinstance(xs, Sequence):
            raise GraphFormatError(f"{name} must be a sequence, not {type(xs).__name__}")
    n = len(labels)
    if len(preds) != n:
        raise GraphFormatError(f"got {n} labels but {len(preds)} predecessor lists")
    bad = _first_non_int(labels)
    if bad is not None:
        raise GraphFormatError(f"label {bad[1]!r} of node {bad[0]} is not an int")
    # a dict or set row iterates without a TypeError below, so row types are
    # checked here, once per distinct type
    if not all(issubclass(t, Sequence) for t in set(map(type, preds))):
        row = _bad_row(preds)
        raise GraphFormatError(f"node {row[0]}: {row[1]}")
    ids = list(range(n))
    succ: list[list[int]] = [[] for _ in ids]
    try:
        lo = min(chain.from_iterable(preds), default=0)
        hi = max(chain.from_iterable(preds), default=-1)
        if lo < 0 or hi >= n:  # only now look for the first bad row
            v = next(v for v, ps in enumerate(preds) if ps and (min(ps) < 0 or max(ps) >= n))
            raise GraphFormatError(f"edge into {v} has source out of range for n={n}")
        for v, ps in zip(ids, preds):
            for u in ps:
                succ[u].append(v)
    except TypeError:
        # a source that does not compare with ints or index a list fails
        # above; rows of ints pay no check
        row = _bad_row(preds)
        if row is None:
            raise
        raise GraphFormatError(f"node {row[0]}: {row[1]}") from None
    rows = [[] if ps else () for ps in preds]
    return _assemble(tuple(labels), succ, rows, ids, sigma)


def _first_non_int(xs: Sequence) -> tuple[int, object] | None:
    """(index, item) of the first item of ``xs`` that is not an int, or
    None. A bool is an int. Items that are all ints cost one pass over their
    types."""
    if all(issubclass(t, int) for t in set(map(type, xs))):
        return None
    return next((i, x) for i, x in enumerate(xs) if not isinstance(x, int))


def _bad_row(preds: Sequence) -> tuple[int, str] | None:
    """The first row that is not a sequence of ints, as (node, what is
    wrong), or None."""
    for v, ps in enumerate(preds):
        if not isinstance(ps, Sequence):
            return v, f"predecessor row {ps!r} is not a sequence"
        bad = _first_non_int(ps)
        if bad is not None:
            return v, f"predecessor {bad[1]!r} is not an int"
    return None


def _assemble(
    label: tuple[int, ...], succ: list, rows: list, ids: list[int], sigma: int | None
) -> LabeledGraph:
    """The one graph builder behind make_graph and parse_graph.

    ``succ[u]`` lists the targets of u in id order, ``rows[v]`` is an empty
    list when v has a predecessor and ``()`` otherwise, and ``ids[i]`` is the
    int object stored for node i. Visiting sources in label order fills
    every row in (label, id) order without sorting a row. Every stored id is
    an object of ``ids``, so the adjacency references n distinct ints, which
    keeps large graphs cache-resident. Each row list is released as soon
    as it is copied to a tuple, so the copy never doubles the adjacency's
    memory. ``succ`` is not stored.
    """
    for u in sorted(ids, key=label.__getitem__):
        for v in succ[u]:
            rows[v].append(u)
    for i, r in enumerate(rows):
        rows[i] = tuple(r)
    if sigma is None:
        sigma = max(label) + 1 if label else 0
    g = LabeledGraph(n=len(label), sigma=sigma, label=label, preds=tuple(rows))
    object.__setattr__(g, "rows_checked", True)
    return g


def validate(g: LabeledGraph) -> ValidationReport:
    """Check every structural invariant of LabeledGraph.

    Violations are data, not exceptions; callers that require validity raise
    :class:`InvalidGraphError` themselves. A rule that can fail at every node
    is reported once, with a count and the first offending node, so the
    report stays small for a file that claims many nodes but holds few edges.
    """
    out: list[tuple[str, str, str]] = []
    n, sigma, label, preds = g.n, g.sigma, g.label, g.preds
    # type: n, sigma, labels and sources are ints (a bool is one), and label,
    # preds and each row are sequences. The other rules compare, index and
    # slice with them, so these are reported alone
    out += [("type", "graph", f"{name} {x!r} is not an int")
            for name, x in (("n", n), ("sigma", sigma)) if not isinstance(x, int)]
    out += [("type", "graph", f"{name} {x!r} is not a sequence")
            for name, x in (("label", label), ("preds", preds)) if not isinstance(x, Sequence)]
    if not g.rows_checked:
        bad = _first_non_int(label) if isinstance(label, Sequence) else None
        if bad is not None:
            out.append(("type", f"node {bad[0]}", f"label {bad[1]!r} is not an int"))
        row = _bad_row(preds) if isinstance(preds, Sequence) else None
        if row is not None:
            out.append(("type", f"node {row[0]}", row[1]))
    if out:
        return ValidationReport(False, tuple(out))
    if len(label) != n or len(preds) != n:
        msg = "label/preds length differs from n"
        return ValidationReport(False, (("shape", "graph", msg),))
    if n and (min(label) < 0 or max(label) >= sigma):
        k = sum(1 for c in label if not 0 <= c < sigma)
        u = next(u for u, c in enumerate(label) if not 0 <= c < sigma)
        msg = f"{k} of {n} labels outside 0..{sigma - 1}"
        out.append(("label-range", f"node {u}", msg))
    if not all(preds):
        v = next(v for v, ps in enumerate(preds) if not ps)
        msg = f"{n - sum(map(bool, preds))} of {n} nodes have no predecessor"
        out.append(("in-degree", f"node {v}", msg))
    # deterministic: no source appears twice among the predecessors of the
    # nodes with one label
    by_label: dict[int, list[tuple[int, ...]]] = {}
    for c, ps in zip(label, preds):
        if ps:
            by_label.setdefault(c, []).append(ps)
    dup: dict[int, int] = {}  # source -> least label it reaches twice
    for c in sorted(by_label):
        rs = by_label[c]
        if sum(map(len, rs)) != len(set().union(*rs)):
            for u, times in Counter(chain.from_iterable(rs)).items():
                if times > 1:
                    dup.setdefault(u, c)
    out += [("determinism", f"node {u}", f"two successors labeled {dup[u]}")
            for u in sorted(dup)]
    # counted, not listed: sigma comes from the file header and may be huge
    unused = sigma - sum(1 for c in set(label) if 0 <= c < sigma)
    if unused:
        msg = f"{unused} of {sigma} characters label no node"
        out.append(("alphabet", "graph", msg))
    # make_graph and parse_graph range-check and sort every row; other
    # graphs get both checked
    if not g.rows_checked:
        for v, ps in enumerate(preds):
            if ps and not 0 <= min(ps) <= max(ps) < n:
                out += [("edge-range", f"edge ({u},{v})", "source out of range")
                        for u in ps if not 0 <= u < n]
            elif any(label[a] > label[b] for a, b in zip(ps, ps[1:])):
                out.append(("order", f"node {v}", "predecessors not sorted by label"))
    return ValidationReport(not out, tuple(out))


def require_valid(g: LabeledGraph) -> None:
    rep = validate(g)
    if not rep.ok:
        msgs = "; ".join(f"{rule} at {where}: {msg}" for rule, where, msg in rep.violations[:5])
        raise InvalidGraphError(f"invalid graph: {msgs}")


def from_dfa(
    num_states: int,
    edges: Iterable[tuple[int, int, Hashable]],
    initial: int,
) -> tuple[LabeledGraph, dict[Hashable, int]]:
    """Convert a DFA transition relation into a LabeledGraph.

    Adds a self-loop at the initial state labeled with a fresh minimum
    character (mapped to integer 0); every other character shifts up by one.
    Final states play no role and are not represented. ``edges`` is read
    once, so it may be an iterator. Returns the graph and the character
    mapping used, so callers can translate results back.
    """
    if not isinstance(num_states, int):
        raise GraphFormatError(f"num_states must be an int, got {num_states!r}")
    if not (isinstance(initial, int) and 0 <= initial < num_states):
        raise GraphFormatError(f"initial state {initial!r} out of range")
    try:
        edges = list(edges)
        chars = sorted({c for _, _, c in edges})
    except (TypeError, ValueError) as e:
        raise GraphFormatError(f"edges must be (state, state, char) triples: {e}") from e
    charmap: dict[Hashable, int] = {c: i + 1 for i, c in enumerate(chars)}
    labels: list[int | None] = [None] * num_states
    labels[initial] = 0
    preds: list[list[int]] = [[] for _ in range(num_states)]
    preds[initial].append(initial)
    out_chars: list[set[int]] = [set() for _ in range(num_states)]
    out_chars[initial].add(0)
    for u, v, c in edges:
        if not all(isinstance(x, int) and 0 <= x < num_states for x in (u, v)):
            raise GraphFormatError(f"edge ({u},{v}) out of range: states are ints < {num_states}")
        if v == initial:
            raise GraphFormatError("initial state has an incoming edge")
        ci = charmap[c]
        if labels[v] is None:
            labels[v] = ci
        elif labels[v] != ci:
            raise GraphFormatError(
                f"state {v} violates input consistency: chars {labels[v]} and {ci}"
            )
        if ci in out_chars[u]:
            raise GraphFormatError(f"state {u} is nondeterministic on char {ci}")
        out_chars[u].add(ci)
        preds[v].append(u)
    for v, lab in enumerate(labels):
        if lab is None:
            raise GraphFormatError(f"state {v} has no incoming edge and is not initial")
    return make_graph(labels, preds, sigma=len(chars) + 1), charmap


def transpose_alphabet(g: LabeledGraph) -> LabeledGraph:
    """Flip the character order: label c becomes sigma-1-c. An involution.

    Each row is reversed, so it is in label order under the flipped labels.
    """
    s = g.sigma - 1
    return replace(
        g, label=tuple(s - c for c in g.label), preds=tuple(ps[::-1] for ps in g.preds)
    )


def trim_for_kinds(g: LabeledGraph) -> LabeledGraph:
    """Keep in each row only its leading run of the least label in the row.

    v's minimum string is label(v) followed by the least minimum string of
    its predecessors, each of which begins with its source's label, so only
    that run can carry it. Every node keeps its minimum string and tau, and
    the result still satisfies all graph invariants. Returns ``g`` itself
    when every row holds one label. The name is kept because
    perfbench/tracer.py patches it. Its mirror for maximum strings is
    :func:`_trim_to_greatest_runs`.
    """
    label = g.label
    key = label.__getitem__
    rows = list(g.preds)
    for v, ps in enumerate(rows):
        if ps and label[ps[0]] != label[ps[-1]]:
            rows[v] = ps[: bisect_right(ps, label[ps[0]], key=key)]
    preds = tuple(rows)
    if preds == g.preds:  # identity-equal rows compare in O(1) each
        return g
    return replace(g, preds=preds)


def _trim_to_greatest_runs(g: LabeledGraph) -> LabeledGraph:
    """Keep in each row only its trailing run of the greatest label in the row.

    The mirror of :func:`trim_for_kinds`: v's maximum string is label(v)
    followed by the greatest maximum string of its predecessors, each of
    which begins with its source's label, so only that run can carry it.
    :func:`transpose_alphabet` reverses each row, so the run becomes its
    row's leading least-label run, ties in descending id: the transposed
    result has exactly the rows that ``trim_for_kinds(transpose_alphabet(g))``
    keeps.
    """
    label = g.label
    key = label.__getitem__
    rows = list(g.preds)
    for v, ps in enumerate(rows):
        if ps and label[ps[0]] != label[ps[-1]]:
            rows[v] = ps[bisect_left(ps, label[ps[-1]], key=key) :]
    return replace(g, preds=tuple(rows))


HEADER_PREFIX = "gsa-graph v1"
# how many characters of the text parse_graph splits into lines at a time;
# a chunk runs on to the end of the line it reaches, so no line spans two
_CHUNK = 1 << 16


def _line_chunks(text: str) -> Iterator[list[str]]:
    """The lines of ``text`` without their ends, one list per chunk.

    ``\\r\\n`` and ``\\r`` are first rewritten to ``\\n``, in one copy made
    only when ``text`` holds a ``\\r``; then only ``\\n`` ends a line. Unlike
    ``str.splitlines``, no other character (``\\f``, ``\\x85``, ...) does.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", min(start + _CHUNK, end) - 1)
        if stop < 0:  # the last line has no end
            stop = end
        yield text[start:stop].split("\n")
        start = stop + 1


def parse_graph(text: str) -> LabeledGraph:
    """Parse the TSV graph file format.

    Header ``gsa-graph v1 <n> <sigma>``, then one ``u<TAB>v<TAB>c`` line per
    edge where c must equal the label of v. Lines starting with ``#`` are
    comments. Rejects inconsistent labels. Only ``\\n``, ``\\r\\n`` and ``\\r``
    end a line.

    Lines are split from ``text`` itself, 64 Ki characters at a time; the
    whole text is copied once, at its own size, only when it holds a
    ``\\r``. A parse peaks at about one byte per character above the text
    and the graph it returns. Per-node arrays are allocated only after the
    last edge line; they cost about 85 bytes per header node, whether or
    not the file holds edges for it.
    """
    lines = chain.from_iterable(_line_chunks(text))
    first = next((ln for ln in lines if ln and ln[0] != "#"), "")
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
    # bound allocations by the file, not by the header's claim
    if n > len(text):
        raise GraphFormatError(
            f"header claims {n} nodes in a file of {len(text)} characters"
        )
    labels: dict[int, int] = {}  # node with an in-edge -> its label
    canon: dict[int, int] = {}  # one int object per target id
    succ: defaultdict[int, list[int]] = defaultdict(list)
    for ln in lines:
        # blank and comment lines fail to split and are skipped here
        try:
            a, b, z = ln.split("\t")
            u, v, c = int(a), int(b), int(z)
        except ValueError as e:
            if not ln or ln[0] == "#":
                continue
            raise GraphFormatError(f"bad edge line: {ln!r}") from e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        if not 0 <= c < sigma:
            raise GraphFormatError(f"char {c} out of range")
        old = labels.setdefault(v, c)
        if old != c:
            raise GraphFormatError(f"node {v} has inconsistent labels {old} and {c}")
        succ[u].append(canon.setdefault(v, v))
    for row in succ.values():
        row.sort()  # linear when the file lists edges by target
    ids = [canon.get(i, i) for i in range(n)]
    return _assemble(
        tuple([labels.get(v, 0) for v in ids]),
        [succ.get(u, ()) for u in ids],
        [[] if v in labels else () for v in ids],
        ids,
        sigma,
    )


def format_graph(g: LabeledGraph) -> str:
    """Serialize to the TSV file format; inverse of :func:`parse_graph`.

    Edges are written by target, and by source id within a target. Each
    target's lines are built as one string: every line of a row ends in the
    same ``<TAB>v<TAB>c`` tail.
    """
    out = [f"{HEADER_PREFIX} {g.n} {g.sigma}\n"]
    for v, ps in enumerate(g.preds):
        if ps:
            tail = f"\t{v}\t{g.label[v]}\n"
            out.append(tail.join(map(str, sorted(ps))) + tail)
    return "".join(out)
