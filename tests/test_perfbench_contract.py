"""The benchmark in perfbench/ still reads every metric it reports.

perfbench's tracer patches library functions by name and prints ``null`` for
a per-layer metric whose function is gone or never reached. The self-check
there checks the per-layer metrics by name only, so these tests run each
workload at tiny size, with and without tracing, and require every reported
value to be a number.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, importable as its scripts import each other, with
    the repository root as the working directory. The setup phase stops after
    its minimum number of parses instead of parsing for at least a second;
    only the timing needs that second."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer

    monkeypatch.setattr(run, "SETUP_MIN_SECONDS", 0.0)
    return run, tracer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_a_number(perfbench, capsys, workload, trace):
    run, _tracer = perfbench
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace)],
        tiny=True,
    )
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    bad = {name: m["value"] for name, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float))}
    assert not bad


def test_every_traced_site_exists(perfbench):
    _run, tracer = perfbench
    assert tracer.Tracer().missing == []
