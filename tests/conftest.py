"""Shared fixtures: the reference 7-node graph and reusable graph corpora."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from gsa import LabeledGraph, make_graph
from gsa.generators import KINDS, gen
from gsa.oracle import enumerate_small_graphs

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
    return list(enumerate_small_graphs(n_max, sigma))


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
