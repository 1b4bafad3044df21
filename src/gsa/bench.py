"""Empirical scaling benchmark for the partition algorithm."""

from __future__ import annotations

import math
import statistics
import time
from collections.abc import Sequence
from dataclasses import dataclass

from .driver import EngineStats, min_partition
from .generators import gen


@dataclass(frozen=True)
class BenchRecord:
    kind: str
    n: int
    m: int
    seed: int
    wall_time_ns: int
    peak_frontier_work: int
    recursion_depth: int


def bench_scaling(
    kinds: Sequence[str],
    sizes: Sequence[int],
    repeats: int = 3,
    seed: int = 0,
) -> tuple[list[BenchRecord], dict[str, float]]:
    """Time min_partition per (kind, size) and fit the log-log slope per kind.

    Timing excludes generation; the first run on the smallest size is a
    discarded warm-up; per size the median over ``repeats`` runs is used for
    the fit. Random graphs use sigma = n/4, half of the possible n*sigma
    edges and seed + n, so the edge count grows quadratically in n; the
    other kinds use sigma 2 (cycle: at most n) and seed.
    """
    if not all(isinstance(x, int) for x in (*sizes, repeats, seed)):
        raise ValueError(f"sizes, repeats and seed must be ints: {sizes!r}, {repeats!r}, {seed!r}")
    if len(sizes) < 3 or sorted(set(sizes)) != list(sizes):
        raise ValueError("need >=3 strictly increasing sizes")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    records: list[BenchRecord] = []
    slopes: dict[str, float] = {}
    xs = [math.log(n) for n in sizes]
    for kind in kinds:
        ys: list[float] = []
        for idx, n in enumerate(sizes):
            g_seed = seed + n if kind == "random" else seed
            if kind == "random":
                g = gen("random", n, max(2, n // 4), seed=g_seed, density=0.5)
            else:
                g = gen(kind, n, min(n, 2) if kind == "cycle" else 2, seed=g_seed)
            if idx == 0:
                min_partition(g)  # warm-up, discarded
            times = []
            for _ in range(repeats):
                stats = EngineStats()
                t0 = time.perf_counter_ns()
                min_partition(g, stats)
                times.append(time.perf_counter_ns() - t0)
            med = int(statistics.median(times))
            records.append(
                BenchRecord(
                    kind=kind,
                    n=g.n,
                    m=g.edge_count(),
                    seed=g_seed,
                    wall_time_ns=med,
                    peak_frontier_work=stats.peak_exploration_edges,
                    recursion_depth=stats.depth,
                )
            )
            ys.append(math.log(max(med, 1)))
        slopes[kind] = statistics.linear_regression(xs, ys).slope
    return records, slopes
