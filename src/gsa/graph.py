"""Core graph representation and structural operations.

A :class:`LabeledGraph` is a deterministic, input-consistent, node-labeled
directed graph over a dense integer alphabet. Input consistency means every
edge entering a node carries the same character, so the character is stored on
the node itself. All algorithms in this package read strings by walking edges
backward, which is why predecessors are the primary adjacency and successors
are a derived index.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field


class GraphFormatError(ValueError):
    """Raised when a graph file or DFA description cannot be interpreted."""


class InvalidGraphError(ValueError):
    """Raised when an operation requires a valid graph and got an invalid one."""


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable deterministic, input-consistent labeled graph.

    Nodes are ``0..n-1``, characters are ``0..sigma-1`` ordered by integer
    value. ``preds[v]`` lists the sources of edges entering ``v``; ``succs`` is
    the derived forward index and is kept consistent by construction.
    """

    n: int
    sigma: int
    label: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    # set by make_graph, whose succs are correct by construction; lets
    # validate skip the O(m log m) preds/succs cross-check
    succs_derived: bool = field(default=False, compare=False, repr=False)

    def edge_count(self) -> int:
        return sum(len(p) for p in self.preds)

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield edges as (source, target) pairs."""
        for v, ps in enumerate(self.preds):
            for u in ps:
                yield (u, v)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, str, str], ...]


def make_graph(
    labels: Sequence[int],
    preds: Sequence[Iterable[int]],
    sigma: int | None = None,
) -> LabeledGraph:
    """Build a LabeledGraph from per-node labels and predecessor lists.

    Derives the successor index. Does not validate; call :func:`validate` to
    check the structural assumptions.
    """
    n = len(labels)
    if len(preds) != n:
        raise GraphFormatError(f"got {n} labels but {len(preds)} predecessor lists")
    if sigma is None:
        sigma = max(labels) + 1 if n else 0
    # route every stored id through one shared table so equal ids are the
    # same object; adjacency then references only n distinct ints, which
    # keeps large graphs cache-resident
    canon = list(range(n))
    succ_lists: list[list[int]] = [[] for _ in range(n)]
    rows = []
    for v in range(n):
        row = sorted(preds[v])
        if row and not 0 <= row[0] <= row[-1] < n:
            raise GraphFormatError(f"edge into {v} has source out of range for n={n}")
        crow = tuple(map(canon.__getitem__, row))
        rows.append(crow)
        cv = canon[v]
        for u in crow:
            succ_lists[u].append(cv)
    pt = tuple(rows)
    return LabeledGraph(
        n=n,
        sigma=sigma,
        label=tuple(labels),
        preds=pt,
        succs=tuple(tuple(s) for s in succ_lists),
        succs_derived=True,
    )


def validate(g: LabeledGraph) -> ValidationReport:
    """Check every structural invariant of LabeledGraph.

    Violations are data, not exceptions; callers that require validity raise
    :class:`InvalidGraphError` themselves.
    """
    out: list[tuple[str, str, str]] = []
    if len(g.label) != g.n or len(g.preds) != g.n or len(g.succs) != g.n:
        out.append(("shape", "graph", "label/preds/succs length differs from n"))
        return ValidationReport(False, tuple(out))
    for u, c in enumerate(g.label):
        if not 0 <= c < g.sigma:
            out.append(("label-range", f"node {u}", f"label {c} outside 0..{g.sigma - 1}"))
    for v, ps in enumerate(g.preds):
        if not ps:
            out.append(("in-degree", f"node {v}", "node without predecessor"))
        for u in ps:
            if not 0 <= u < g.n:
                out.append(("edge-range", f"edge ({u},{v})", "source out of range"))
    for u, ss in enumerate(g.succs):
        seen: set[int] = set()
        for v in ss:
            c = g.label[v]
            if c in seen:
                out.append(
                    ("determinism", f"node {u}", f"two successors labeled {c}")
                )
                break
            seen.add(c)
    # counted, not listed: sigma comes from the file header and may be huge
    unused = g.sigma - sum(1 for c in set(g.label) if 0 <= c < g.sigma)
    if unused:
        msg = f"{unused} of {g.sigma} characters label no node"
        out.append(("alphabet", "graph", msg))
    # preds/succs must describe the same edge multiset; skipped when succs
    # came from make_graph, which derives them from preds directly
    if not g.succs_derived:
        back = sorted((u, v) for v, ps in enumerate(g.preds) for u in ps)
        fwd = sorted((u, v) for u, ss in enumerate(g.succs) for v in ss)
        if back != fwd:
            out.append(("index", "graph", "preds and succs disagree"))
    return ValidationReport(not out, tuple(out))


def require_valid(g: LabeledGraph) -> None:
    rep = validate(g)
    if not rep.ok:
        msgs = "; ".join(f"{rule} at {where}: {msg}" for rule, where, msg in rep.violations[:5])
        raise InvalidGraphError(f"invalid graph: {msgs}")


def from_dfa(
    num_states: int,
    edges: Sequence[tuple[int, int, Hashable]],
    initial: int,
) -> tuple[LabeledGraph, dict[Hashable, int]]:
    """Convert a DFA transition relation into a LabeledGraph.

    Adds a self-loop at the initial state labeled with a fresh minimum
    character (mapped to integer 0); every other character shifts up by one.
    Final states play no role and are not represented. Returns the graph and
    the character mapping used, so callers can translate results back.
    """
    if not 0 <= initial < num_states:
        raise GraphFormatError(f"initial state {initial} out of range")
    chars = sorted({c for _, _, c in edges})
    charmap: dict[Hashable, int] = {c: i + 1 for i, c in enumerate(chars)}
    labels: list[int | None] = [None] * num_states
    labels[initial] = 0
    preds: list[list[int]] = [[] for _ in range(num_states)]
    preds[initial].append(initial)
    out_chars: list[set[int]] = [set() for _ in range(num_states)]
    out_chars[initial].add(0)
    for u, v, c in edges:
        if not (0 <= u < num_states and 0 <= v < num_states):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
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
    final = [int(x) for x in labels if x is not None]
    assert len(final) == num_states
    return make_graph(final, preds, sigma=len(chars) + 1), charmap


def transpose_alphabet(g: LabeledGraph) -> LabeledGraph:
    """Flip the character order: label c becomes sigma-1-c. An involution."""
    s = g.sigma - 1
    return LabeledGraph(
        n=g.n,
        sigma=g.sigma,
        label=tuple(s - c for c in g.label),
        preds=g.preds,
        succs=g.succs,
        succs_derived=g.succs_derived,
    )


def trim_for_kinds(
    g: LabeledGraph, tau: Sequence[int], kinds: Sequence[int]
) -> LabeledGraph:
    """Remove the edges that can never carry the extremal string of their target.

    ``kinds[v] = 0`` means node v is ordered by its minimum: when tau[v] = 1,
    drop every edge (u,v) with label[u] > label[v]. ``kinds[v] = 1`` means it
    is ordered by its maximum: when tau[v] = 3, drop every edge (u,v) with
    label[u] < label[v], the mirrored rule. The relevant extremal string of
    every node, and therefore tau, is unchanged, and the result still
    satisfies all graph invariants; in particular all in-degrees stay >= 1.
    """
    label = g.label
    new_preds = []
    for v, ps in enumerate(g.preds):
        lv = label[v]
        if kinds[v] == 0 and tau[v] == 1:
            new_preds.append([u for u in ps if label[u] <= lv])
        elif kinds[v] == 1 and tau[v] == 3:
            new_preds.append([u for u in ps if label[u] >= lv])
        else:
            new_preds.append(list(ps))
    return make_graph(g.label, new_preds, sigma=g.sigma)


HEADER_PREFIX = "gsa-graph v1"


def parse_graph(text: str) -> LabeledGraph:
    """Parse the TSV graph file format.

    Header ``gsa-graph v1 <n> <sigma>``, then one ``u<TAB>v<TAB>c`` line per
    edge where c must equal the label of v. Lines starting with ``#`` are
    comments. Rejects inconsistent labels.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 4 or " ".join(head[:2]) != HEADER_PREFIX:
        raise GraphFormatError(f"bad header: {lines[0]!r}")
    try:
        n, sigma = int(head[2]), int(head[3])
    except ValueError as e:
        raise GraphFormatError(f"bad header numbers: {lines[0]!r}") from e
    if n < 0 or sigma < 0:
        raise GraphFormatError("negative n or sigma")
    # bound allocations by the file, not by the header's claim
    if n > len(text):
        raise GraphFormatError(
            f"header claims {n} nodes in a file of {len(text)} characters"
        )
    labels: list[int | None] = [None] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as e:
            raise GraphFormatError(f"bad edge line: {ln!r}") from e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        if not 0 <= c < sigma:
            raise GraphFormatError(f"char {c} out of range")
        if labels[v] is None:
            labels[v] = c
        elif labels[v] != c:
            raise GraphFormatError(
                f"node {v} has inconsistent labels {labels[v]} and {c}"
            )
        preds[v].append(u)
    final_labels = [c if c is not None else 0 for c in labels]
    return make_graph(final_labels, preds, sigma=sigma)


def format_graph(g: LabeledGraph) -> str:
    """Serialize to the TSV file format; inverse of :func:`parse_graph`."""
    out = [f"{HEADER_PREFIX} {g.n} {g.sigma}"]
    for v, ps in enumerate(g.preds):
        for u in ps:
            out.append(f"{u}\t{v}\t{g.label[v]}")
    return "\n".join(out) + "\n"
