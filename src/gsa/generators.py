"""Deterministic graph generators for tests and benchmarks."""

from __future__ import annotations

import random

from .graph import LabeledGraph, make_graph

KINDS = ("random", "cycle", "debruijn", "chain-feeding-sink")


def gen(
    kind: str,
    n: int,
    sigma: int,
    seed: int = 0,
    density: float = 0.1,
) -> LabeledGraph:
    """Generate a valid graph; deterministic for fixed arguments.

    kinds:
      random             labels roughly uniform (every character used), one
                         covering incoming edge per node, then extra random
                         edges up to density * n * min(sigma, n), dropped on
                         determinism conflicts.
      cycle              n-cycle, labels round-robin over the alphabet.
      debruijn           de Bruijn graph; n must be sigma**k, in-degree sigma.
      chain-feeding-sink self-loop head (label 1) feeding a chain of label-0
                         nodes; every chain node's minimum has a leading run
                         equal to its depth. sigma must be 2.

    Only random reads ``density``, but every kind requires it in [0, 1].
    """
    if not all(isinstance(x, int) for x in (n, sigma, seed)):
        raise ValueError(f"n, sigma and seed must be ints, got {n!r}, {sigma!r}, {seed!r}")
    if not isinstance(density, (int, float)):
        raise ValueError(f"density must be a number, got {density!r}")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "cycle":
        if sigma < 1 or sigma > n:
            raise ValueError("cycle needs 1 <= sigma <= n")
        labels = [i % sigma for i in range(n)]
        preds = [[(i - 1) % n] for i in range(n)]
        return make_graph(labels, preds, sigma=sigma)
    if kind == "debruijn":
        if sigma < 1:
            raise ValueError("debruijn needs sigma >= 1")
        size = sigma
        while size < n and sigma > 1:  # the only power of 1 is 1
            size *= sigma
        if size != n or n < sigma:
            raise ValueError(f"debruijn needs n to be a power of sigma, got {n}")
        labels = [x % sigma for x in range(n)]
        preds = [
            [(v // sigma) + j * (n // sigma) for j in range(sigma)]
            for v in range(n)
        ]
        return make_graph(labels, preds, sigma=sigma)
    if kind == "chain-feeding-sink":
        if sigma != 2:
            raise ValueError("chain-feeding-sink is defined for sigma = 2")
        if n < 2:
            raise ValueError("chain-feeding-sink needs n >= 2")
        labels = [1] + [0] * (n - 1)
        preds = [[0]] + [[i - 1] for i in range(1, n)]
        return make_graph(labels, preds, sigma=2)
    if kind != "random":
        raise ValueError(f"unknown generator kind {kind!r}")

    if sigma < 1 or sigma > n:
        raise ValueError("random needs 1 <= sigma <= n")
    rng = random.Random(seed)
    labels = list(range(sigma)) + [rng.randrange(sigma) for _ in range(n - sigma)]
    rng.shuffle(labels)
    out_used: list[set[int]] = [set() for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    m = 0
    for v in range(n):
        c = labels[v]
        start = rng.randrange(n)
        for k in range(n):
            u = start + k
            if u >= n:
                u -= n
            if c not in out_used[u]:
                out_used[u].add(c)
                preds[v].append(u)
                m += 1
                break
        else:  # pragma: no cover - impossible: fewer nodes share c than sources
            raise AssertionError("no free slot for coverage edge")
    target = int(density * n * min(sigma, n))
    attempts = 0
    limit = 4 * target + 16
    while m < target and attempts < limit:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        c = labels[v]
        if c in out_used[u]:
            continue
        out_used[u].add(c)
        preds[v].append(u)
        m += 1
    return make_graph(labels, preds, sigma=sigma)
