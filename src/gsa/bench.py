"""Empirical scaling benchmark for the partition algorithm."""

from __future__ import annotations

import math
import statistics
import time
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
    kinds: list[str],
    sizes: list[int],
    repeats: int = 3,
    seed: int = 0,
    sigma: int | None = None,
    density: float | None = None,
) -> tuple[list[BenchRecord], dict[str, float]]:
    """Time min_partition per (kind, size) and fit the log-log slope per kind.

    Timing excludes generation; the first run on the smallest size is a
    discarded warm-up; per size the median over ``repeats`` runs is used for
    the fit. Dense random graphs by default use sigma = n/4 and half of the
    possible n*sigma edges, so the edge count grows quadratically in n.
    """
    if len(sizes) < 3 or sorted(set(sizes)) != sizes:
        raise ValueError("need >=3 strictly increasing sizes")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    records: list[BenchRecord] = []
    slopes: dict[str, float] = {}
    for kind in kinds:
        xs: list[float] = []
        ys: list[float] = []
        for idx, n in enumerate(sizes):
            g_seed = seed + n if kind == "random" else seed
            if kind == "random":
                s = sigma if sigma is not None else max(2, n // 4)
                d = density if density is not None else 0.5
                g = gen("random", n, s, seed=g_seed, density=d)
            elif kind == "cycle":
                g = gen("cycle", n, min(n, sigma or 2), seed=g_seed)
            elif kind == "chain-feeding-sink":
                g = gen("chain-feeding-sink", n, 2, seed=g_seed)
            else:
                g = gen(kind, n, sigma or 2, seed=g_seed)
            if idx == 0:
                min_partition(g)  # warm-up, discarded
            times = []
            stats = EngineStats()
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
            xs.append(math.log(n))
            ys.append(math.log(max(med, 1)))
        slopes[kind] = statistics.linear_regression(xs, ys).slope
    return records, slopes
