"""Shared fixtures: the reference 7-node graph and reusable graph corpora."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from gsa import LabeledGraph, make_graph, transpose_alphabet
from gsa.classify import compute_tau
from gsa.generators import KINDS, gen

from corpus import ascending_labelings, full_labelings, graphs

# 7 nodes labeled #,a,b,c,c,a,c as 0,1,2,3,3,1,3; node 0 is the #-looped
# start, nodes 4 and 6 carry the c-self-loops. This is the worked example
# every golden value in the suite traces back to.
FIG_LABELS = [0, 1, 2, 3, 3, 1, 3]
FIG_PREDS = [[0], [0], [0], [0], [1, 4], [2, 3], [3, 6]]

FIG_TAU = [2, 1, 1, 1, 1, 3, 1]
FIG_MIN_GROUPS = ((0,), (1,), (5,), (2,), (3,), (4,), (6,))
FIG_MAX_GROUPS = ((0,), (1,), (5,), (2,), (3,), (4, 6))
# ((node, kind), ...) per group, ascending
FIG_MINMAX = (
    ((0, "min"), (0, "max")),
    ((1, "min"), (1, "max")),
    ((5, "min"),),
    ((5, "max"),),
    ((2, "min"), (2, "max")),
    ((3, "min"), (3, "max")),
    ((4, "min"),),
    ((6, "min"),),
    ((4, "max"), (6, "max")),
)


@pytest.fixture
def fig_graph() -> LabeledGraph:
    return make_graph(FIG_LABELS, FIG_PREDS, sigma=4)


def successor_rows(g: LabeledGraph) -> list[list[int]]:
    """Every node's successors in id order, derived from ``preds``."""
    succs: list[list[int]] = [[] for _ in range(g.n)]
    for v, ps in enumerate(g.preds):
        for u in ps:
            succs[u].append(v)
    return succs


def small_corpus(n_max: int = 3, sigma: int = 2) -> list[LabeledGraph]:
    """Every valid graph with 1..n_max nodes and at most sigma labels, in every id order."""
    return [g for n in range(1, n_max + 1) for g in graphs(n, full_labelings(n, sigma))]


def random_corpus(
    sizes: tuple[int, ...] = (6, 10, 25), per_size: int = 8
) -> list[LabeledGraph]:
    out = []
    for n in sizes:
        for i in range(per_size):
            sigma = (2, 3, 4, min(8, n))[i % 4]
            out.append(
                gen("random", n, min(sigma, n), seed=n * 1000 + i, density=0.35)
            )
    return out


@pytest.fixture(scope="session")
def exhaustive_graphs() -> list[LabeledGraph]:
    return small_corpus()


@pytest.fixture(scope="session")
def ascending_n4() -> list[LabeledGraph]:
    """Every label-ascending graph with n = 4 and sigma <= 3 (38,074)."""
    return list(graphs(4, ascending_labelings(4, 3)))


@pytest.fixture(scope="session")
def second_level_graphs(ascending_n4) -> list[LabeledGraph]:
    """The graphs of ``ascending_n4`` whose min or max call runs a second
    engine level (7,230).

    The engine recurses on the smaller of the tau=1 and tau=3 classes, on
    none when either is empty, and the reduced graph has a node per class
    node; max runs it on the transposed graph. So a second level runs
    exactly when both classes of g or of its transpose hold two nodes. This
    costs a tenth of running the calls with ``EngineStats``.
    """
    return [
        g
        for g in ascending_n4
        if any(
            min(tau.count(1), tau.count(3)) >= 2
            for tau in (compute_tau(g), compute_tau(transpose_alphabet(g)))
        )
    ]


@pytest.fixture(scope="session")
def mixed_corpus() -> list[LabeledGraph]:
    return small_corpus() + random_corpus()


@st.composite
def generated_graphs(draw):
    """A hypothesis strategy over small graphs of the four ``gen`` kinds."""
    kind = draw(st.sampled_from(KINDS))
    if kind == "debruijn":
        sigma = draw(st.integers(2, 3))
        return gen(kind, sigma ** draw(st.integers(1, 4 if sigma == 2 else 3)), sigma)
    if kind == "chain-feeding-sink":
        return gen(kind, draw(st.integers(2, 20)), 2)
    n = draw(st.integers(1, 30))
    sigma = draw(st.integers(1, min(n, 6)))
    return gen(kind, n, sigma, seed=draw(st.integers(0, 10**6)), density=0.4)
