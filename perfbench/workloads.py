"""Seeded workload graphs, written as gsa TSV text.

The generators live here rather than in ``gsa.gen`` so that a change to the
library's generators cannot change what the benchmark measures. Each workload
is chosen to stress a different engine layer:

* ``dense``: random, n = 2000, sigma = 500, about 500k edges. Graph
  construction, validation, trimming and tau dominate min and max, and
  exploration is close to zero there.
* ``sparse-deep``: random, n = 10000, sigma = 4, about 12k edges. The
  recursion is seven to nine levels deep and no single layer dominates, so
  it shows per-level overhead and merge cost. (At n = 20000 the phase mix is
  the same, but calls are twice as long and a run gets half the samples.)
* ``debruijn``: binary de Bruijn graph, n = 2**13. Frontiers grow to about
  n, the quadratic exploration regime, while the graph layer is cheap.

Each workload's edge structure is drawn once, from a fixed seed; the run's
seed permutes the node ids. Runs with different seeds therefore measure
isomorphic graphs stored differently. On freshly drawn dense graphs the
exploration work of minmax ranges over a factor of two or more between draws
(about 0.35M to 1.0M scanned edges in six draws), which would swamp the
timing differences the benchmark is meant to show.

``TINY`` holds the same shapes at sizes small enough for the self-check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

Graph = tuple[list[int], list[list[int]]]


@dataclass(frozen=True)
class Workload:
    text: str
    n: int
    m: int
    edges_sha256: str


def random_graph(rng: random.Random, n: int, sigma: int, density: float) -> Graph:
    """Labels covering the alphabet, one covering in-edge per node, then
    random extra edges up to density * n * sigma, skipping any that would
    give a node two out-edges with the same character."""
    rand = rng.random  # int(rand() * n) draws like randrange(n), but faster
    labels = list(range(sigma)) + [int(rand() * sigma) for _ in range(n - sigma)]
    rng.shuffle(labels)
    used = bytearray(n * sigma)  # used[u * sigma + c]: u has an out-edge labeled c
    preds: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        c = labels[v]
        u = int(rand() * n)
        while used[u * sigma + c]:
            u = u + 1 if u + 1 < n else 0
        used[u * sigma + c] = 1
        preds[v].append(u)
    m = n
    target = int(density * n * sigma)
    for _ in range(4 * target):
        if m >= target:
            break
        u = int(rand() * n)
        v = int(rand() * n)
        slot = u * sigma + labels[v]
        if used[slot]:
            continue
        used[slot] = 1
        preds[v].append(u)
        m += 1
    return labels, preds


def debruijn_graph(rng: random.Random, sigma: int, k: int) -> Graph:
    """De Bruijn graph on sigma**k nodes (rng unused: there is one)."""
    n = sigma**k
    labels = [v % sigma for v in range(n)]
    preds = [[v // sigma + j * (n // sigma) for j in range(sigma)] for v in range(n)]
    return labels, preds


def permuted(graph: Graph, rng: random.Random) -> Graph:
    """The same graph with node ids renamed by a seeded permutation."""
    labels, preds = graph
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    new_labels = [0] * n
    new_preds: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        new_labels[perm[v]] = labels[v]
        new_preds[perm[v]] = [perm[u] for u in preds[v]]
    return new_labels, new_preds


def to_tsv(graph: Graph) -> Workload:
    """TSV text, and the sha256 of the sorted edge list: each edge (u, v, c)
    as the decimal key (u * n + v) * sigma + c, keys ascending, one space
    between them."""
    labels, preds = graph
    n = len(labels)
    sigma = max(labels) + 1
    lines = [f"gsa-graph v1 {n} {sigma}"]
    lines += [f"{u}\t{v}\t{labels[v]}" for v in range(n) for u in preds[v]]
    keys = sorted((u * n + v) * sigma + labels[v] for v in range(n) for u in preds[v])
    digest = hashlib.sha256(" ".join(map(str, keys)).encode()).hexdigest()
    return Workload("\n".join(lines) + "\n", n, len(keys), digest)


FULL = {
    "dense": lambda rng: random_graph(rng, 2000, 500, 0.5),
    "sparse-deep": lambda rng: random_graph(rng, 10000, 4, 0.3),
    "debruijn": lambda rng: debruijn_graph(rng, 2, 13),
}

TINY = {
    "dense": lambda rng: random_graph(rng, 40, 10, 0.5),
    "sparse-deep": lambda rng: random_graph(rng, 120, 4, 0.3),
    "debruijn": lambda rng: debruijn_graph(rng, 2, 5),
}


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    table = TINY if tiny else FULL
    structure = table[name](random.Random(f"{name}/structure"))
    return to_tsv(permuted(structure, random.Random(f"{name}/{seed}")))
