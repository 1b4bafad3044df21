"""Per-layer spans recorded from outside the library.

The tracer swaps module attributes of ``gsa`` for timing wrappers while one
traced call runs, then puts the originals back, so untraced calls run the
library unchanged. Every wrapper records a span (name, start, end, recursion
level, enclosing span, call id) and the counts read from the wrapped
function's arguments and return value. ``explore`` runs about 10**4 times per
level, so its spans are folded into one span per level.

A layer whose attribute is missing, or that no traced call ever reached, is
reported as untraced (``None``), never as zero: the library is expected to
rename and inline some of these functions.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any

CountFn = Callable[[tuple, Any], dict[str, int]]


def _trim_counts(args: tuple, result: Any) -> dict[str, int]:
    return {"edges_in": args[0].edge_count(), "edges_kept": result.edge_count()}


def _explore_counts(args: tuple, result: Any) -> dict[str, int]:
    return {"edges": result.edges_scanned, "peak_edges": result.edges_scanned}


# (layer, function, attribute sites patched, per-call stats, call kinds that
# reach it, counter). make_graph is patched wherever it is looked up, so its
# time is taken out of the self time of trim_for_kinds, build_reduced_graph
# and _union_graph.
Layer = tuple[str, str, tuple[tuple[str, str], ...], tuple[str, ...], tuple[str, ...], CountFn | None]
LAYERS: tuple[Layer, ...] = (
    ("graph", "require_valid", (("gsa.driver", "require_valid"),),
     ("self_s",), ("min", "max", "minmax"), None),
    ("graph", "make_graph",
     (("gsa.driver", "make_graph"), ("gsa.graph", "make_graph"), ("gsa.reduction", "make_graph")),
     ("self_s", "calls"), ("min", "max", "minmax"), None),
    ("graph", "trim_for_kinds", (("gsa.driver", "trim_for_kinds"),),
     ("self_s", "edges_in", "edges_kept"), ("min", "max", "minmax"), _trim_counts),
    ("graph", "transpose_alphabet", (("gsa.driver", "transpose_alphabet"),),
     ("self_s",), ("max", "minmax"), None),
    ("classify", "compute_tau", (("gsa.driver", "compute_tau"),),
     ("self_s", "nodes"), ("min", "max", "minmax"), lambda a, r: {"nodes": len(r)}),
    ("reduction", "explore", (("gsa.driver", "explore"),),
     ("self_s", "calls", "edges", "peak_edges"), ("min", "max", "minmax"), _explore_counts),
    ("reduction", "build_reduced_graph", (("gsa.driver", "build_reduced_graph"),),
     ("self_s", "nodes"), ("min", "max", "minmax"), lambda a, r: {"nodes": r.graph.n}),
    ("merge", "merge_partitions", (("gsa.driver", "merge_partitions"),),
     ("self_s", "groups"), ("min", "max", "minmax"), lambda a, r: {"groups": len(r)}),
    ("merge", "run_heights", (("gsa.driver", "_run_heights"),),
     ("self_s",), ("min", "max", "minmax"), None),
    ("driver", "engine", (("gsa.driver", "_engine"),),
     ("self_s", "levels"), ("min", "max", "minmax"), None),
    ("driver", "union_graph", (("gsa.driver", "_union_graph"),),
     ("self_s",), ("minmax",), None),
)

# stats folded by maximum over a call's spans; every other count is summed
_PEAK_STATS = {"peak_edges"}
# time inside the public entry point not covered by any wrapped function
ENTRY = "driver.entry"
CALL_KINDS = ("min", "max", "minmax")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for kind in CALL_KINDS:
        for layer, fn, _sites, stats, kinds, _counter in LAYERS:
            if kind in kinds:
                for stat in stats:
                    unit = "s" if stat.endswith("_s") else "count"
                    out.append((f"{kind}.{layer}.{fn}.{stat}", unit))
        out.append((f"{kind}.{ENTRY}.self_s", "s"))
        out.append((f"{kind}.trace.overhead_s", "s"))
    return out


class Tracer:
    """Spans and per-call counts of the traced calls of one run."""

    def __init__(self) -> None:
        self.sites: list[tuple[Any, str, Callable, str]] = []
        self.missing: list[str] = []
        self.counters: dict[str, CountFn | None] = {}
        for layer, fn, sites, _stats, _kinds, counter in LAYERS:
            key = f"{layer}.{fn}"
            self.counters[key] = counter
            for modname, attr in sites:
                try:
                    mod = importlib.import_module(modname)
                except ImportError:
                    mod = None
                orig = getattr(mod, attr, None)
                if orig is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self.sites.append((mod, attr, orig, key))
        self.broken: set[str] = set()
        self.spans: list[dict[str, Any]] = []
        # (call kind, per-call totals, factor scaling its times to the
        # reference speed, see run.Meter)
        self.per_call: list[list[Any]] = []
        self._stack: list[list[Any]] = []
        self._level = 0
        self._totals: dict[str, int] = {}
        self._explore: dict[int, list[int]] = {}
        self._call_id = -1
        for site in self.missing:
            print(f"perfbench: untraced, {site} no longer exists", file=sys.stderr)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        tracer = self
        counter = self.counters[key]
        is_engine = key == "driver.engine"
        is_explore = key == "reduction.explore"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = tracer._stack[-1]
            frame = [0, key]
            level = tracer._level if is_engine else tracer._level - 1
            if is_engine:
                tracer._level += 1
            tracer._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                if is_engine:
                    tracer._level -= 1
            counts = {}
            if counter is not None and key not in tracer.broken:
                try:
                    counts = counter(args, result)
                except (AttributeError, TypeError) as e:
                    tracer.broken.add(key)
                    print(f"perfbench: untraced, counts of {key}: {e}", file=sys.stderr)
            tracer._add(key, "self_ns", t1 - t0 - frame[0])
            tracer._add(key, "calls", 1)
            for stat, v in counts.items():
                tracer._add(key, stat, v)
            if is_explore:
                agg = tracer._explore.get(level)
                if agg is None:
                    tracer._explore[level] = [t0, t1, 1, t1 - t0 - frame[0], parent[1]]
                else:
                    agg[1] = t1
                    agg[2] += 1
                    agg[3] += t1 - t0 - frame[0]
            else:
                tracer.spans.append(
                    {"call": tracer._call_id, "name": key, "level": level,
                     "parent": parent[1], "start_ns": t0, "end_ns": t1,
                     "self_ns": t1 - t0 - frame[0]}
                )
            # the parent's self time excludes this span and its bookkeeping
            parent[0] += perf_counter_ns() - t0
            return result

        return wrapper

    def _add(self, key: str, stat: str, v: int) -> None:
        k = f"{key}.{stat}"
        if stat in _PEAK_STATS:
            self._totals[k] = max(self._totals.get(k, 0), v)
        else:
            self._totals[k] = self._totals.get(k, 0) + v

    @contextmanager
    def call(self, kind: str) -> Iterator[None]:
        """Trace one top-level call; the wrappers are live only inside."""
        self._call_id += 1
        self._totals = {}
        self._explore = {}
        root = [0, ENTRY]
        self._stack = [root]
        self._level = 0
        for mod, attr, orig, key in self.sites:
            setattr(mod, attr, self._wrap(key, orig))
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            for mod, attr, orig, _key in self.sites:
                setattr(mod, attr, orig)
        self._totals[f"{ENTRY}.self_ns"] = t1 - t0 - root[0]
        self.spans.append(
            {"call": self._call_id, "name": ENTRY, "kind": kind, "level": -1,
             "parent": None, "start_ns": t0, "end_ns": t1,
             "self_ns": t1 - t0 - root[0]}
        )
        for level, (s, e, count, self_ns, parent) in sorted(self._explore.items()):
            self.spans.append(
                {"call": self._call_id, "name": "reduction.explore", "level": level,
                 "parent": parent, "start_ns": s, "end_ns": e, "self_ns": self_ns,
                 "count": count}
            )
        self.per_call.append([kind, self._totals, 1.0])

    def scale_last(self, factor: float) -> None:
        """Scale the last traced call's times to the reference speed."""
        self.per_call[-1][2] = factor

    def metrics(self, overhead_s: dict[str, float | None]) -> dict[str, float | int | None]:
        """Median over traced calls of each per-call total, by call kind.

        A stat is None (untraced) when its function was never reached by any
        traced call, its attribute no longer exists, or its count could not
        be read from the return value."""
        reached = set()
        for _kind, totals, _f in self.per_call:
            for k, v in totals.items():
                if k.endswith(".calls") and v:
                    reached.add(k[: -len(".calls")])
        out: dict[str, float | int | None] = {}
        for name, _unit in per_layer_names():
            kind, rest = name.split(".", 1)
            if rest == "trace.overhead_s":
                out[name] = overhead_s.get(kind)
                continue
            key, stat = rest.rsplit(".", 1)
            untraced = key != ENTRY and key not in reached
            if untraced or (key in self.broken and stat not in ("self_s", "calls", "levels")):
                out[name] = None
                continue
            src = {"self_s": "self_ns", "levels": "calls"}.get(stat, stat)
            calls = [(t.get(f"{key}.{src}", 0), f) for k, t, f in self.per_call if k == kind]
            if not calls:
                out[name] = None
            elif stat.endswith("_s"):
                out[name] = statistics.median(v * f for v, f in calls) / 1e9
            else:
                out[name] = statistics.median_low(v for v, _f in calls)
        never = sorted(
            {f"{layer}.{fn}" for layer, fn, *_ in LAYERS} - reached
        )
        for key in never:
            print(f"perfbench: untraced, {key} was never called", file=sys.stderr)
        return out

    def counts_by_call(self) -> list[tuple[str, dict[str, int]]]:
        """Per-call counts without times, to check they repeat exactly."""
        return [
            (kind, {k: v for k, v in t.items() if not k.endswith("_ns")})
            for kind, t, _f in self.per_call
        ]

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
