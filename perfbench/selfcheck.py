"""Self-check of the benchmark at tiny sizes.

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``.
Exits 0 when every check passes. It checks that

* every metric named in BENCHMARK.json is printed, for every workload, with
  and without tracing;
* the per-layer counts are identical across two traced runs of one seed,
  and across the calls of one kind within a run;
* a deliberately corrupted output is counted in ``failed``;
* the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

import run

HERE = Path(__file__).resolve().parent
SECONDS = "0.2"
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"selfcheck: {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def bench(workload: str, trace: int, corrupt: Any = None) -> tuple[dict, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
             "--trace", str(trace)],
            tiny=True, corrupt=corrupt,
        )
    lines = buf.getvalue().strip().splitlines()
    if code != 0:
        raise SystemExit(f"selfcheck: run exited {code}")
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


def corrupt_min(kind: str, out: Any) -> Any:
    if kind != "min":
        return out
    return type(out)(out.groups + ((-1,),))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    check(workloads == list(run.WORKLOADS), "BENCHMARK.json names the workloads run.py knows")

    for w in workloads:
        result, _meta = bench(w, 0)
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{w}: result line has exactly the keys correct, attempted, failed, metrics")
        check(set(result["metrics"]) == e2e, f"{w}: every end-to-end metric printed")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"{w}: every end-to-end value is a number")
        check(result["correct"] and result["failed"] == 0, f"{w}: outputs match the oracle")

        traced = [bench(w, 1) for _ in range(2)]
        check(all(set(r["metrics"]) == layer for r, _m in traced),
              f"{w}: every per-layer metric printed")
        # the number of traced calls depends on timing; their counts do not
        per_kind: list[dict[str, list]] = [{}, {}]
        for (_r, m), kinds in zip(traced, per_kind):
            for kind, c in m["counts_by_call"]:
                kinds.setdefault(kind, []).append(c)
        check(all(all(c == cs[0] for c in cs) for k in per_kind for cs in k.values()),
              f"{w}: counts identical across calls of one kind")
        check({k: cs[0] for k, cs in per_kind[0].items()}
              == {k: cs[0] for k, cs in per_kind[1].items()},
              f"{w}: counts identical across two traced runs")

    result, _meta = bench("debruijn", 0, corrupt=corrupt_min)
    n_min = (result["attempted"] + 2) // 3  # min is the first call of every round
    check(not result["correct"] and result["failed"] == n_min,
          "a corrupted min output is counted in failed")

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    r = subprocess.run(
        [*spec["command"], "--workload", workloads[0], "--seed", "1",
         "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(r.returncode != 0 and not r.stdout.strip(),
          "exits non-zero with no result where there is no program")

    if problems:
        print(f"selfcheck: {len(problems)} check(s) failed", file=sys.stderr)
        return 1
    print("selfcheck: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
