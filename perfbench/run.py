"""End-to-end benchmark of gsa's min, max and minmax partitions.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

One process, one caller, calls made back to back (a closed loop of one
client). A child process generates the seeded workload as TSV text and
computes the oracle reference; this process loads the text with
``gsa.parse_graph`` (the set-up, repeated and timed), makes one untimed
warm-up round, then interleaves ``min_partition``, ``max_partition`` and
``minmax_partition`` for ``--seconds`` of measured call time, collecting
garbage between calls and checking every output against the reference.

Times are scaled to a reference machine speed (see ``Meter``); the raw wall
medians are printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced calls with calls traced from outside the library (see tracer.py)
and reports the per-layer metrics, including the tracing overhead; its spans
are written to ``.perfbench-out/``. The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path
from time import perf_counter
from typing import Any

from reference import digest_minmax, digest_partition
from tracer import Tracer, per_layer_names

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench-out")
WORKLOADS = ("dense", "sparse-deep", "debruijn")
CALL_KINDS = ("min", "max", "minmax")
# set-up is parsed at least this many times, and for at least this long
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# typical time of calibrate() on the reference machine (2-core Xeon KVM
# guest, Python 3.11), where it ranged from 0.04 to 0.08 s; scaled times are
# seconds at that speed
CALIB_REF_S = 0.065
# a slow machine stretches the wall time of a run; stop at this multiple
WALL_LIMIT = 2.0

Corrupt = Callable[[str, Any], Any]


def calibrate() -> int:
    """Fixed pure-Python work (list building, dict updates, strided reads,
    a sort) whose time tracks the machine's speed at the moment. It takes
    about 50 ms: shorter runs of it scatter too widely to stand for the
    speed over a whole call."""
    n = 100_000
    xs = [(i * 2654435761) & 0xFFFFF for i in range(n)]
    d: dict[int, int] = {}
    for x in xs:
        k = x & 0xFFF
        d[k] = d.get(k, 0) + 1
    s = 0
    for i in range(n):
        s += xs[(i * 7919) % n]
    return s + len(d) + sorted(xs)[n // 2]


class Meter:
    """Times calls and scales each to the reference machine speed.

    The shared machine this benchmark was tuned on changes speed by up to
    about 2x for stretches of seconds to minutes, and process time tracks
    wall time through these changes, so raw medians of two runs of the same
    code differed by up to a third. Each call is bracketed by runs of
    ``calibrate``; its scaled time is its wall time times CALIB_REF_S over
    the mean of the two calibrations around it. Smoothing the calibrations
    over more calls, or scaling whole runs, tracked the machine less well in
    recorded five-minute traces of calls.
    """

    def __init__(self) -> None:
        self.calibrations = [self._calibrate()]
        self.raw = 0.0
        self.scaled = 0.0

    @staticmethod
    def _calibrate() -> float:
        gc.collect()
        t0 = perf_counter()
        calibrate()
        return perf_counter() - t0

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run fn(*args) once; set ``raw`` and ``scaled`` even if it raises."""
        gc.collect()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.raw = perf_counter() - t0
            c = self._calibrate()
            self.scaled = self.raw * CALIB_REF_S * 2 / (self.calibrations[-1] + c)
            self.calibrations.append(c)


def _git_revision() -> str:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def _reference(workload: str, seed: int, tsv: Path, tiny: bool) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "reference.py"), workload, str(seed), str(tsv)]
    if tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if r.returncode != 0:
        raise RuntimeError(f"reference failed: {r.stderr.strip()}")
    return json.loads(r.stdout.splitlines()[-1])


class Checker:
    """Makes the calls, compares every output with the reference, counts."""

    def __init__(self, ref: dict[str, Any], meter: Meter, corrupt: Corrupt | None) -> None:
        self.ref = ref
        self.meter = meter
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0

    def run(self, kind: str, fn: Callable[[Any], Any], g: Any, tracer: Any = None) -> bool:
        """Make one call; the meter holds its times. False if it failed."""
        self.attempted += 1
        try:
            if tracer is None:
                out = self.meter.call(fn, g)
            else:
                out = self.meter.call(self._traced, tracer, kind, fn, g)
                tracer.scale_last(self.meter.scaled / self.meter.raw)
        except Exception as e:  # a failed call is counted, not fatal
            self.failed += 1
            print(f"perfbench: {kind} raised {type(e).__name__}: {e}", file=sys.stderr)
            return False
        if self.corrupt is not None:
            out = self.corrupt(kind, out)
        if not self._correct(kind, out):
            self.failed += 1
            print(f"perfbench: {kind} output differs from the reference", file=sys.stderr)
            return False
        return True

    @staticmethod
    def _traced(tracer: Any, kind: str, fn: Callable[[Any], Any], g: Any) -> Any:
        with tracer.call(kind):
            return fn(g)

    def _correct(self, kind: str, out: Any) -> bool:
        if kind != "minmax":
            return digest_partition(out) == self.ref[kind]
        return (
            digest_minmax(out) == self.ref["minmax"]
            and digest_partition(out.restricted("min")) == self.ref["min"]
            and digest_partition(out.restricted("max")) == self.ref["max"]
        )


def _median(xs: list[float]) -> float | None:
    return statistics.median(xs) if xs else None


def run(
    workload: str, seed: int, seconds: float, trace: bool,
    tiny: bool = False, corrupt: Corrupt | None = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One benchmark run; returns (result line, metadata)."""
    if "src" not in sys.path:
        sys.path.insert(0, "src")
    from gsa import max_partition, min_partition, minmax_partition, parse_graph

    fns = {"min": min_partition, "max": max_partition, "minmax": minmax_partition}
    tsv = OUT_DIR / f"{workload}-{seed}.tsv"
    ref = _reference(workload, seed, tsv, tiny)
    print(f"perfbench: workload {workload} seed {seed} n {ref['n']} m {ref['m']} "
          f"edges_sha256 {ref['edges_sha256']}")

    text = tsv.read_text(encoding="utf-8")
    tsv.unlink()
    meter = Meter()
    setup: list[float] = []
    setup_raw: list[float] = []
    t_start = perf_counter()
    while len(setup) < SETUP_MIN_REPEATS or perf_counter() - t_start < SETUP_MIN_SECONDS:
        g = None  # never hold two parsed graphs at once
        g = meter.call(parse_graph, text)
        setup.append(meter.scaled)
        setup_raw.append(meter.raw)
        if len(setup) >= 100:
            break

    check = Checker(ref, meter, corrupt)
    for kind in CALL_KINDS:  # warm-up round, untimed
        check.run(kind, fns[kind], g)

    times: dict[str, list[float]] = {k: [] for k in CALL_KINDS}
    raw: dict[str, list[float]] = {k: [] for k in CALL_KINDS}
    traced: dict[str, list[float]] = {k: [] for k in CALL_KINDS}
    tracer = Tracer() if trace else None
    # the loop runs for `seconds` of scaled call time, so the number of calls
    # does not depend on the machine's speed during the run
    measured = 0.0
    wall_end = perf_counter() + WALL_LIMIT * seconds
    i = 0
    while i < len(CALL_KINDS) or (measured < seconds and perf_counter() < wall_end):
        kind = CALL_KINDS[i % len(CALL_KINDS)]
        i += 1
        if check.run(kind, fns[kind], g):
            times[kind].append(meter.scaled)
            raw[kind].append(meter.raw)
        measured += meter.scaled
        if tracer is not None:
            if check.run(kind, fns[kind], g, tracer):
                traced[kind].append(meter.scaled)
            measured += meter.scaled
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    e2e: dict[str, tuple[float | int | None, str, int]] = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        **{f"{k}_s": (_median(times[k]), "s", len(times[k])) for k in CALL_KINDS},
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "ops": (check.attempted, "count", 1),
        "ops_failed": (check.failed, "count", 1),
    }
    wall = {
        "setup_wall_s": (statistics.median(setup_raw), "s", len(setup_raw)),
        **{f"{k}_wall_s": (_median(raw[k]), "s", len(raw[k])) for k in CALL_KINDS},
        "calibration_s": (statistics.median(meter.calibrations), "s",
                          len(meter.calibrations)),
    }
    report = e2e
    if tracer is not None:
        overhead = {}
        for k in CALL_KINDS:
            a, b = _median(traced[k]), _median(times[k])
            overhead[k] = None if a is None or b is None else a - b
        units = dict(per_layer_names())
        report = {
            name: (v, units[name], len(traced[name.split(".", 1)[0]]))
            for name, v in tracer.metrics(overhead).items()
        }
        tracer.write_spans(OUT_DIR / f"spans-{workload}-{seed}.jsonl")

    shown = {**e2e, **wall, **report}
    for name, (v, unit, n) in shown.items():
        print(f"perfbench: {name} {v} {unit} (samples {n})")
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "n": ref["n"],
        "m": ref["m"],
        "edges_sha256": ref["edges_sha256"],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "calibration_ref_s": CALIB_REF_S,
        "metrics": {
            name: {"value": v, "unit": unit, "samples": n}
            for name, (v, unit, n) in shown.items()
        },
    }
    if tracer is not None:
        meta["counts_by_call"] = tracer.counts_by_call()
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": v, "unit": unit}
            for name, (v, unit, _n) in report.items()
            if name != "ops_failed"
        },
    }
    return result, meta


def main(argv: list[str] | None = None, tiny: bool = False,
         corrupt: Corrupt | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/gsa/__init__.py").is_file():
        print("perfbench: run from the root of a gsa checkout (no src/gsa here)",
              file=sys.stderr)
        return 2
    try:
        result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           tiny=tiny, corrupt=corrupt)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
