"""Every small valid graph, for the exhaustive checks.

Imports only ``gsa`` and the standard library, so a script without pytest can
use it too. The caller chooses the labelings: ``full_labelings`` gives every
id order, ``ascending_labelings`` one id order per labeled shape.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations_with_replacement, product

from gsa import LabeledGraph, make_graph


def graphs(n: int, labelings: Iterable[tuple[int, ...]]) -> Iterator[LabeledGraph]:
    """For each labeling in turn, every deterministic graph on n nodes in
    which every node has a predecessor.

    A labeling gives node v the label ``labels[v]``, over the alphabet
    0..max(labels). Each node picks at most one successor per character,
    which is exactly determinism. No isomorphism reduction.
    """
    for labels in labelings:
        by_char: list[list[int]] = [[] for _ in range(max(labels) + 1)]
        for v, c in enumerate(labels):
            by_char[c].append(v)
        # per node: one successor per character, -1 meaning no such edge
        rows = list(product(*[[-1, *vs] for vs in by_char]))
        for choice in product(rows, repeat=n):
            preds: list[list[int]] = [[] for _ in range(n)]
            for u, row in enumerate(choice):
                for v in row:
                    if v >= 0:
                        preds[v].append(u)
            if all(preds):
                yield make_graph(labels, preds, sigma=len(by_char))


def full_labelings(n: int, sigma: int) -> Iterator[tuple[int, ...]]:
    """Every labeling of n nodes onto 0..s-1, for s = 1..sigma in turn."""
    for s in range(1, sigma + 1):
        yield from (ls for ls in product(range(s), repeat=n) if len(set(ls)) == s)


def ascending_labelings(n: int, sigma: int) -> Iterator[tuple[int, ...]]:
    """The labelings of ``full_labelings`` that do not decrease with the id.

    Every graph is isomorphic to one whose labels ascend with the id, so
    these keep every labeled shape: at n = 4 and sigma = 3, in 38,074 graphs
    of 427,224. They can miss a bug that depends on the id order.
    """
    for s in range(1, sigma + 1):
        yield from (
            ls for ls in combinations_with_replacement(range(s), n) if len(set(ls)) == s
        )
